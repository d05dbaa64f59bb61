// perfbench_load — the single load process of the repository benchmark.
//
//   perfbench_load --workload NAME --seed N --seconds S --trace 0|1
//                  --cli PATH --work-root DIR [--git-sha SHA]
//                  [--deadline SECONDS] [--spans-out PATH]
//
// `python3 perfbench/run.py` builds this binary and gcon_cli from the
// checkout and runs it; see perfbench/README.md for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
// It makes every input from --seed, drives `gcon_cli` (generate,
// train, serve) as child processes and the core library in-process, checks
// every output, and prints one line per metric followed by one JSON line
// carrying all of them. It exits non-zero, naming the phase, when any check
// fails or any phase errors.
#include <sys/prctl.h>
#include <unistd.h>

#include <csignal>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_math.h"
#include "obs/build_info.h"
#include "workloads.h"

namespace {

using perfbench::Context;

struct Args {
  std::map<std::string, std::string> values;
  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value pairs, got '" + key +
                                  "'");
    }
    args.values[key.substr(2)] = argv[++i];
  }
  return args;
}

/// Ends the process, naming the phase, if the run overstays its deadline.
/// Child processes die with the load program (PR_SET_PDEATHSIG).
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr,
                         "perfbench: FAILED in phase '%s': deadline of %.0f s "
                         "exceeded\n",
                         perfbench::CurrentPhase().c_str(), seconds);
            std::fflush(stderr);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // declared last: starts after the members it uses
};

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  // Die with the process that started us (run.py), so a killed run takes
  // the load program, and through it every server child, down with it.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  Context ctx;
  std::string work_root;
  try {
    const Args args = ParseArgs(argc, argv);
    ctx.workload = args.Get("workload", "");
    ctx.seed = std::stoull(args.Get("seed", "1"));
    ctx.seconds = std::stod(args.Get("seconds", "10"));
    ctx.trace = args.Get("trace", "0") == "1";
    ctx.cli = args.Get("cli", "");
    work_root = args.Get("work-root", "");
    if (ctx.cli.empty() || work_root.empty() || !(ctx.seconds > 0)) {
      throw std::invalid_argument("--cli, --work-root and --seconds > 0 "
                                  "are required");
    }
    ctx.report.Note("git_sha", args.Get("git-sha", "unknown"));
    const double deadline = std::stod(args.Get("deadline", "170"));
    const std::string spans_out = args.Get("spans-out", "");

    const std::map<std::string, std::function<void(Context*)>> workloads = {
        {"train_table2", perfbench::RunTrainTable2},
        {"eps_sweep", perfbench::RunEpsSweep},
        {"serve_node", perfbench::RunServeNode},
        {"serve_inductive", perfbench::RunServeInductive},
    };
    const auto it = workloads.find(ctx.workload);
    if (it == workloads.end()) {
      throw std::invalid_argument("unknown workload '" + ctx.workload + "'");
    }

    ctx.report.Note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
    ctx.report.Note("omp_num_threads", EnvOr("OMP_NUM_THREADS", "unset"));
    ctx.report.Note("library_build", gcon::obs::BuildInfoJson());

    std::filesystem::create_directories(work_root);
    std::string pattern = std::filesystem::absolute(work_root).string() + "/" +
                          ctx.workload + "-XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a scratch directory under " +
                               work_root);
    }
    ctx.work_dir = pattern;

    Watchdog watchdog(deadline);
    perfbench::SpanRecorder spans(ctx.trace, perfbench::Clock::now());
    it->second(&ctx);
    if (ctx.trace) {
      perfbench::ProfileTraining(&ctx, &spans);
      perfbench::ProfileSweep(&ctx, &spans);
      perfbench::ProfileServeNode(&ctx, &spans);
      perfbench::ProfileServeInductive(&ctx, &spans);
      if (!spans_out.empty()) {
        perfbench::SetPhase("trace: write spans");
        std::ofstream out(spans_out);
        out << std::fixed << std::setprecision(3)
            << "name\ttrace_id\tparent\tstart_us\tend_us\tself_us\n";
        const std::vector<double> self = perfbench::SelfTimesUs(spans.spans());
        for (std::size_t i = 0; i < spans.spans().size(); ++i) {
          const perfbench::Span& s = spans.spans()[i];
          out << s.name << '\t' << s.trace_id << '\t' << s.parent << '\t'
              << s.start_us << '\t' << s.end_us << '\t' << self[i] << '\n';
        }
        ctx.report.Note("spans_file", spans_out);
      }
    }
    std::filesystem::remove_all(ctx.work_dir);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: FAILED in phase '" << perfbench::CurrentPhase()
              << "': " << e.what() << std::endl;
    if (!ctx.work_dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(ctx.work_dir, ignored);
    }
    return 1;
  }
  ctx.report.Print(ctx.workload, ctx.trace);
  return ctx.report.correct() ? 0 : 1;
}
