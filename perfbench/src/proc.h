// Child processes of the benchmark: the `gcon_cli` runs (generate, train)
// and the long-lived `gcon_cli serve` server.
//
// Every child is started with PR_SET_PDEATHSIG so it dies with the load
// program whatever way that ends, and a ChildProcess stops its process on
// every exit path (SIGTERM, a grace period, then SIGKILL) and reaps it.
#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// A running child. Output goes to files so a chatty child never blocks
/// on a full pipe.
class ChildProcess {
 public:
  /// Starts `argv` with stdout to `stdout_path` and stderr to
  /// `stderr_path` (created or truncated). Throws std::runtime_error when
  /// the process cannot be started.
  ChildProcess(const std::vector<std::string>& argv,
               const std::string& stdout_path,
               const std::string& stderr_path);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Waits up to `timeout_s` for the child to exit. Returns its exit
  /// status (128 + signal for a signalled child), or -1 on timeout (the
  /// child keeps running).
  int Wait(double timeout_s);
  /// SIGTERM, up to `grace_s` to exit, then SIGKILL; always reaps.
  /// Returns the exit status. Idempotent.
  int Stop(double grace_s = 5.0);
  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int status_ = -1;
};

/// Runs `argv` to completion (killing it after `timeout_s`). Returns the
/// exit status; on a non-zero status or a timeout throws
/// std::runtime_error carrying the tail of the child's stderr.
void RunChecked(const std::vector<std::string>& argv, double timeout_s,
                const std::string& log_prefix);

/// Whole file as a string ("" when unreadable).
std::string ReadFile(const std::string& path);

/// Last `max_bytes` of a file, for error messages.
std::string TailOfFile(const std::string& path, std::size_t max_bytes = 600);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
