// The serving workloads against a `gcon_cli serve --threads 2` child:
//
//   serve_node:      four binary connections send in-graph node queries
//                    spread uniformly over all nodes;
//   serve_inductive: two binary and one JSON connection send unseen nodes'
//                    feature rows plus edge lists, while a fourth
//                    connection publishes at a fixed interval, alternating
//                    two artifacts, against a file-backed budget ledger.
//
// Each measures an open-loop phase at a fixed rate (latency from each
// request's due time), then a closed-loop capacity phase. Every answer is
// checked bit for bit against the in-process reference.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "client.h"
#include "core/model_io.h"
#include "dp/budget_ledger.h"
#include "graph/io.h"
#include "obs/trace.h"
#include "proc.h"
#include "rng/rng.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Open-loop rates, fixed constants at about one third of the closed-loop
// capacity measured on the parent commit (4 vCPU, `--threads 2`). They must
// never be derived at run time: a rate that moves with the code would hide
// the gain it is meant to show.
constexpr double kNodeRate = 80000.0;           // queries/s over 4 connections
constexpr double kInductiveBinaryRate = 6000.0; // queries/s over 2 connections
constexpr double kInductiveJsonRate = 150.0;    // queries/s over 1 connection
constexpr double kPublishIntervalS = 0.5;
/// Length of each load phase of the traced run's layer profiles.
constexpr double kProfilePhaseS = 1.5;
/// Requests each connection keeps in flight in the closed-loop phase.
constexpr int kClosedWindow = 32;
constexpr int kServeThreads = 2;
constexpr int kNodeConnections = 4;
constexpr std::size_t kNodePool = 4096;       // node ids cycled through
constexpr std::size_t kInductivePool = 256;   // distinct unseen nodes
constexpr std::uint64_t kServeGraphStream = 400;
constexpr std::uint64_t kServeTrainStream = 500;
constexpr std::uint64_t kQueryStream = 600;
/// Independent draws of the inputs (a server each) a run measures over.
/// Each server process settles into its own thread placement, which moves
/// its throughput by about 10%; several per run average that out.
constexpr int kSetups = 4;

/// The queries a workload cycles through, pre-encoded for both transports,
/// each with the answers it may legitimately get.
struct QueryMix {
  std::vector<gcon::ServeRequest> requests;
  std::vector<std::string> frames;      ///< binary request frame, id 0
  std::vector<std::string> json_tails;  ///< JSON line after the id
  std::vector<std::vector<const std::vector<double>*>> refs;
};

/// Binary request frame with the id patched in (payload offset 0, i64 LE,
/// after the 5-byte frame header — serve/frame.h).
std::string FrameWithId(const std::string& frame, std::int64_t id) {
  std::string out = frame;
  std::memcpy(&out[gcon::kFrameHeaderBytes], &id, sizeof(id));
  return out;
}

std::string JsonLine(const std::string& tail, std::int64_t id) {
  return "{\"id\": " + std::to_string(id) + tail;
}

/// JSON request text after the id: `, "features": [...], "edges": [...]}\n`.
/// Features print with 17 significant digits, so the server parses back the
/// exact doubles the binary transport carries as f32.
std::string JsonTail(const gcon::ServeRequest& request) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(17);
  if (request.has_features) {
    out << ", \"features\": [";
    for (std::size_t j = 0; j < request.features.size(); ++j) {
      out << (j == 0 ? "" : ", ") << request.features[j];
    }
    out << "]";
  } else {
    out << ", \"node\": " << request.node;
  }
  if (request.has_edges) {
    out << ", \"edges\": [";
    for (std::size_t j = 0; j < request.edges.size(); ++j) {
      out << (j == 0 ? "" : ", ") << request.edges[j];
    }
    out << "]";
  }
  out << "}\n";
  return out.str();
}

void Encode(QueryMix* mix) {
  for (const gcon::ServeRequest& request : mix->requests) {
    mix->frames.push_back(gcon::EncodeRequestFrame(request));
    mix->json_tails.push_back(JsonTail(request));
  }
}

// ------------------------------------------------------------ server child

/// A `gcon_cli serve` child on an ephemeral port.
class ServerChild {
 public:
  ServerChild(const Context& ctx, const std::string& dir,
              const std::vector<std::string>& args) {
    std::vector<std::string> argv = {ctx.cli, "serve", "--port=0",
                                     "--threads=" +
                                         std::to_string(kServeThreads)};
    argv.insert(argv.end(), args.begin(), args.end());
    const std::string err = dir + "/serve.err";
    child_ = std::make_unique<ChildProcess>(argv, dir + "/serve.out", err);
    // The port is read from the stderr banner "serving on 127.0.0.1:<port>".
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    const std::string banner = "serving on 127.0.0.1:";
    for (;;) {
      const std::string text = ReadFile(err);
      const std::size_t at = text.find(banner);
      if (at != std::string::npos &&
          text.find('(', at) != std::string::npos) {
        port_ = std::atoi(text.c_str() + at + banner.size());
        return;
      }
      if (child_->Wait(0.005) != -1) {
        throw std::runtime_error("gcon_cli serve exited before listening:\n" +
                                 TailOfFile(err));
      }
      if (Clock::now() > deadline) {
        throw std::runtime_error("gcon_cli serve printed no banner in 60 s");
      }
    }
  }
  ~ServerChild() { child_->Stop(); }
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;
  int port() const { return port_; }

 private:
  std::unique_ptr<ChildProcess> child_;
  int port_ = 0;
};

// ------------------------------------------------------------------ streams

/// One load connection, whichever transport it speaks.
class Stream {
 public:
  virtual ~Stream() = default;
  virtual void Send(std::int64_t id, std::size_t query) = 0;
  /// Next buffered answer, if any.
  virtual bool Next(Answer* answer) = 0;
  virtual bool Fill(std::int64_t wait_us) = 0;
};

class BinaryStream : public Stream {
 public:
  BinaryStream(int port, const QueryMix* mix) : client_(port), mix_(mix) {}
  void Send(std::int64_t id, std::size_t query) override {
    client_.SendAll(FrameWithId(mix_->frames[query], id));
  }
  bool Next(Answer* answer) override {
    gcon::FrameType type{};
    if (!client_.NextFrame(&type, &payload_)) return false;
    *answer = BinaryClient::Decode(type, payload_);
    return true;
  }
  bool Fill(std::int64_t wait_us) override { return client_.Fill(wait_us); }
  BinaryClient& client() { return client_; }

 private:
  BinaryClient client_;
  const QueryMix* mix_;
  std::string payload_;
};

class JsonStream : public Stream {
 public:
  JsonStream(int port, const QueryMix* mix) : client_(port), mix_(mix) {}
  void Send(std::int64_t id, std::size_t query) override {
    client_.SendAll(JsonLine(mix_->json_tails[query], id));
  }
  bool Next(Answer* answer) override {
    if (!client_.NextLine(&line_)) return false;
    *answer = JsonClient::Decode(line_);
    return true;
  }
  bool Fill(std::int64_t wait_us) override { return client_.Fill(wait_us); }

 private:
  JsonClient client_;
  const QueryMix* mix_;
  std::string line_;
};

/// What one connection saw in one phase.
struct StreamResult {
  OpenLoopStats open;
  /// Open loop: due time of each answered query, seconds into the phase
  /// (parallel to open.latency_us()).
  std::vector<double> open_due_s;
  /// Closed loop: when each correct in-window answer arrived, seconds into
  /// the phase.
  std::vector<double> closed_answered_s;
  OutcomeCounts outcomes;
  std::string error;  ///< set when the connection failed
  std::unique_ptr<SpanRecorder> spans;
};

struct InFlight {
  std::int64_t id;
  std::size_t query;
  Clock::time_point due;  ///< open loop: schedule; closed loop: send time
};

/// Matches the answer to the oldest request (answers come back in order)
/// and checks its bits. Returns true when it was correct.
bool Settle(const QueryMix& mix, const Answer& answer,
            std::deque<InFlight>* inflight, StreamResult* r) {
  if (inflight->empty() || answer.id != inflight->front().id) {
    throw std::runtime_error("answer id " + std::to_string(answer.id) +
                             " out of order");
  }
  const Outcome outcome = ClassifyAnswer(answer.refused, answer.logits,
                                         mix.refs[inflight->front().query]);
  r->outcomes.Add(outcome);
  return outcome == Outcome::kOk;
}

std::size_t PickQuery(const QueryMix& mix, std::uint64_t i,
                      std::uint64_t offset) {
  return static_cast<std::size_t>((i * 7919 + offset) % mix.requests.size());
}

/// Open loop: request i is due at schedule.Due(i); sends everything due,
/// then waits for answers no longer than until the next due time.
void OpenLoop(Stream* stream, const QueryMix& mix, OpenLoopSchedule schedule,
              Clock::time_point start, Clock::time_point end,
              std::uint64_t offset, std::int64_t id_base, StreamResult* r) {
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake on time, not 50 us late
  std::deque<InFlight> inflight;
  std::uint64_t i = 0;
  Answer answer;
  const Clock::time_point give_up = end + std::chrono::seconds(10);
  for (;;) {
    Clock::time_point now = Clock::now();
    while (schedule.Due(i) < end && schedule.Due(i) <= now) {
      const Clock::time_point due = schedule.Due(i);
      const std::int64_t id = id_base + static_cast<std::int64_t>(i);
      const std::size_t query = PickQuery(mix, i, offset);
      stream->Send(id, query);
      now = Clock::now();
      r->open.RecordSend(due, now);
      inflight.push_back({id, query, due});
      ++i;
    }
    const bool sending_done = schedule.Due(i) >= end;
    if (sending_done && inflight.empty()) return;
    const std::int64_t wait_us =
        sending_done ? 1000
                     : std::max<std::int64_t>(
                           0, static_cast<std::int64_t>(MicrosBetween(
                                  Clock::now(), schedule.Due(i))));
    stream->Fill(wait_us);
    const Clock::time_point answered = Clock::now();
    while (stream->Next(&answer)) {
      const InFlight request = inflight.front();
      if (Settle(mix, answer, &inflight, r)) {
        r->open.RecordAnswer(request.due, answered);
        r->open_due_s.push_back(MicrosBetween(start, request.due) * 1e-6);
        if (r->spans) {
          r->spans->Add("serve.query", static_cast<std::uint64_t>(request.id),
                        request.due, answered);
        }
      }
      inflight.pop_front();
    }
    if (answered > give_up) {
      throw std::runtime_error(std::to_string(inflight.size()) +
                               " queries unanswered 10 s after the phase");
    }
  }
}

/// Closed loop: keeps kClosedWindow requests in flight until `end`.
void ClosedLoop(Stream* stream, const QueryMix& mix, Clock::time_point start,
                Clock::time_point end, std::uint64_t offset,
                std::int64_t id_base, StreamResult* r) {
  std::deque<InFlight> inflight;
  std::uint64_t i = 0;
  auto send = [&] {
    const std::int64_t id = id_base + static_cast<std::int64_t>(i);
    const std::size_t query = PickQuery(mix, i, offset);
    inflight.push_back({id, query, Clock::now()});
    stream->Send(id, query);
    ++i;
  };
  for (int k = 0; k < kClosedWindow; ++k) send();
  Answer answer;
  const Clock::time_point give_up = end + std::chrono::seconds(10);
  while (!inflight.empty()) {
    if (!stream->Fill(100000) && Clock::now() > give_up) {
      throw std::runtime_error("closed loop stalled");
    }
    const Clock::time_point answered = Clock::now();
    while (stream->Next(&answer)) {
      const InFlight request = inflight.front();
      if (Settle(mix, answer, &inflight, r) && answered <= end) {
        r->closed_answered_s.push_back(MicrosBetween(start, answered) * 1e-6);
        if (r->spans) {
          r->spans->Add("serve.query", static_cast<std::uint64_t>(request.id),
                        request.due, answered);
        }
      }
      inflight.pop_front();
      if (answered < end) send();
    }
  }
}

// ------------------------------------------------------------------- setups

/// Everything a serving run needs, from seed to warm server.
struct ServeSetup {
  std::string dir;
  std::shared_ptr<const gcon::Graph> graph;
  std::vector<std::string> artifacts;  ///< model files (A, then B)
  std::vector<std::vector<std::vector<double>>> expected;  ///< [artifact][q]
  QueryMix mix;
  std::unique_ptr<ServerChild> server;
  std::vector<std::unique_ptr<Stream>> streams;
  std::vector<bool> json;  ///< transport of each stream
  std::unique_ptr<JsonClient> publisher;
  /// Request ids are unique per stream and phase: phase << 40 | stream << 32.
  std::int64_t phases = 0;
  std::int64_t NextIdBase(std::size_t stream) {
    return ((++phases) << 40) | (static_cast<std::int64_t>(stream) << 32);
  }
};

std::vector<double> Row(const gcon::Matrix& m, std::size_t r) {
  return std::vector<double>(m.RowPtr(r), m.RowPtr(r) + m.cols());
}

/// Closed-loop warm-up burst on every stream (connection paths, worker
/// wake-ups, the server's caches).
void WarmUp(ServeSetup* s, Context* ctx) {
  SetPhase("setup: warm-up");
  std::vector<StreamResult> results(s->streams.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + std::chrono::milliseconds(300);
  for (std::size_t k = 0; k < s->streams.size(); ++k) {
    ClosedLoop(s->streams[k].get(), s->mix, start, end, k, s->NextIdBase(k),
               &results[k]);
    if (results[k].outcomes.errors() != 0) {
      ctx->report.CheckFailed("wrong or refused answers during warm-up");
    }
  }
}

std::unique_ptr<ServeSetup> SetUpNode(Context* ctx, const std::string& name,
                                      int draw) {
  auto s = std::make_unique<ServeSetup>();
  const std::uint64_t base = 1000 * static_cast<std::uint64_t>(draw);
  s->dir = MakeDir(*ctx, name);
  const std::string graph_path = s->dir + "/cora_ml.graph";
  SetPhase("setup: gcon_cli generate cora_ml");
  CliGenerate(*ctx, "cora_ml",
              DeriveSeed(ctx->seed, base + kServeGraphStream), graph_path);
  SetPhase("setup: gcon_cli train");
  s->artifacts.push_back(s->dir + "/a.model");
  CliTrain(*ctx, graph_path, s->artifacts[0],
           DeriveSeed(ctx->seed, base + kServeTrainStream));

  SetPhase("setup: offline reference answers");
  s->graph = std::make_shared<const gcon::Graph>(gcon::LoadGraph(graph_path));
  const gcon::Matrix logits =
      gcon::LoadModel(s->artifacts[0]).Infer(*s->graph);
  s->expected.resize(1);
  for (std::size_t v = 0; v < logits.rows(); ++v) {
    s->expected[0].push_back(Row(logits, v));
  }
  gcon::Rng rng(DeriveSeed(ctx->seed, base + kQueryStream));
  for (std::size_t q = 0; q < kNodePool; ++q) {
    gcon::ServeRequest request;
    request.node = static_cast<int>(rng.UniformInt(s->graph->num_nodes()));
    s->mix.refs.push_back(
        {&s->expected[0][static_cast<std::size_t>(request.node)]});
    s->mix.requests.push_back(std::move(request));
  }
  Encode(&s->mix);

  SetPhase("setup: gcon_cli serve");
  s->server = std::make_unique<ServerChild>(
      *ctx, s->dir,
      std::vector<std::string>{"--graph=" + graph_path,
                               "--model=" + s->artifacts[0]});
  for (int k = 0; k < kNodeConnections; ++k) {
    s->streams.push_back(
        std::make_unique<BinaryStream>(s->server->port(), &s->mix));
    s->json.push_back(false);
  }
  WarmUp(s.get(), ctx);
  return s;
}

std::unique_ptr<ServeSetup> SetUpInductive(Context* ctx,
                                           const std::string& name, int draw) {
  auto s = std::make_unique<ServeSetup>();
  const std::uint64_t base = 1000 * static_cast<std::uint64_t>(draw);
  s->dir = MakeDir(*ctx, name);
  const std::string graph_path = s->dir + "/cora_ml.graph";
  const std::string unseen_path = s->dir + "/unseen.graph";
  SetPhase("setup: gcon_cli generate cora_ml");
  CliGenerate(*ctx, "cora_ml",
              DeriveSeed(ctx->seed, base + kServeGraphStream), graph_path);
  // The unseen nodes come from a second, independent draw of the dataset.
  CliGenerate(*ctx, "cora_ml",
              DeriveSeed(ctx->seed, base + kServeGraphStream + 1),
              unseen_path);
  for (int a = 0; a < 2; ++a) {
    SetPhase("setup: gcon_cli train artifact " + std::to_string(a));
    s->artifacts.push_back(s->dir + "/" + (a == 0 ? "a" : "b") + ".model");
    CliTrain(*ctx, graph_path, s->artifacts.back(),
             DeriveSeed(ctx->seed, base + kServeTrainStream + a));
  }

  SetPhase("setup: in-process reference answers");
  s->graph = std::make_shared<const gcon::Graph>(gcon::LoadGraph(graph_path));
  const gcon::Graph unseen = gcon::LoadGraph(unseen_path);
  gcon::Rng rng(DeriveSeed(ctx->seed, base + kQueryStream));
  const int n = s->graph->num_nodes();
  for (std::size_t q = 0; q < kInductivePool; ++q) {
    gcon::ServeRequest request;
    request.has_features = true;
    const int source = static_cast<int>(rng.UniformInt(unseen.num_nodes()));
    for (std::size_t j = 0; j < unseen.features().cols(); ++j) {
      // The binary transport carries f32: round once so both transports
      // deliver the same doubles.
      request.features.push_back(static_cast<double>(static_cast<float>(
          unseen.features()(static_cast<std::size_t>(source), j))));
    }
    request.has_edges = true;
    const int degree = 1 + static_cast<int>(rng.UniformInt(8));
    for (int e = 0; e < degree; ++e) {
      request.edges.push_back(static_cast<int>(rng.UniformInt(n)));
    }
    s->mix.requests.push_back(std::move(request));
  }
  s->expected.resize(2);
  for (int a = 0; a < 2; ++a) {
    const gcon::InferenceSession session(gcon::LoadModel(s->artifacts[a]),
                                         s->graph);
    for (const gcon::ServeRequest& request : s->mix.requests) {
      s->expected[a].push_back(session.QueryLogits(request));
    }
  }
  for (std::size_t q = 0; q < kInductivePool; ++q) {
    s->mix.refs.push_back({&s->expected[0][q], &s->expected[1][q]});
  }
  Encode(&s->mix);

  SetPhase("setup: gcon_cli serve");
  s->server = std::make_unique<ServerChild>(
      *ctx, s->dir,
      std::vector<std::string>{"--graph=" + graph_path,
                               "--model=" + s->artifacts[0],
                               "--budget-ledger=" + s->dir + "/budget.ledger"});
  for (int k = 0; k < 2; ++k) {
    s->streams.push_back(
        std::make_unique<BinaryStream>(s->server->port(), &s->mix));
    s->json.push_back(false);
  }
  s->streams.push_back(
      std::make_unique<JsonStream>(s->server->port(), &s->mix));
  s->json.push_back(true);
  s->publisher = std::make_unique<JsonClient>(s->server->port());
  WarmUp(s.get(), ctx);
  return s;
}

// ----------------------------------------------------------------- phases

/// Publishes alternately artifact B and A every kPublishIntervalS until
/// `end`; returns the round trips in ms.
std::vector<double> PublishLoop(ServeSetup* s, Clock::time_point end,
                                OutcomeCounts* outcomes,
                                SpanRecorder* spans) {
  std::vector<double> ms;
  Clock::time_point next = Clock::now();
  for (std::size_t k = 0;; ++k) {
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kPublishIntervalS));
    if (next >= end) break;
    std::this_thread::sleep_until(next);
    const std::string& path = s->artifacts[(k + 1) % 2];
    const Clock::time_point start = Clock::now();
    s->publisher->SendAll("{\"cmd\": \"publish\", \"model\": \"default\", "
                          "\"path\": \"" + path + "\"}\n");
    const std::string reply = s->publisher->ReadLine();
    const Clock::time_point done = Clock::now();
    const bool ok = reply.rfind("{\"published\": ", 0) == 0;
    outcomes->Add(ok ? Outcome::kOk : Outcome::kRefused);
    if (ok) ms.push_back(MicrosBetween(start, done) * 1e-3);
    if (spans != nullptr) spans->Add("serve.publish", k, start, done);
  }
  return ms;
}

/// Result of one phase over every stream.
struct PhaseResult {
  std::vector<StreamResult> streams;
  std::unique_ptr<SpanRecorder> publish_spans;  ///< traced runs only
  std::vector<bool> json;  ///< transport of each stream
  std::vector<double> publish_ms;
  double seconds = 0;
};

/// Runs one phase on every stream (one thread each), plus the publisher
/// when the setup has one.
PhaseResult RunPhase(Context* ctx, ServeSetup* s, bool open, double seconds,
                     bool traced, bool publish) {
  PhaseResult phase;
  phase.seconds = seconds;
  phase.json = s->json;
  phase.streams.resize(s->streams.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  OutcomeCounts publish_outcomes;
  phase.publish_spans = std::make_unique<SpanRecorder>(traced, start);
  std::string publish_error;
  {
    std::vector<std::thread> threads;
    const std::size_t binaries =
        static_cast<std::size_t>(std::count(s->json.begin(), s->json.end(),
                                            false));
    std::size_t binary_index = 0;
    for (std::size_t k = 0; k < s->streams.size(); ++k) {
      StreamResult* r = &phase.streams[k];
      if (traced) r->spans = std::make_unique<SpanRecorder>(true, start);
      double rate = 0, phase_offset = 0;
      if (s->json[k]) {
        rate = kInductiveJsonRate;
      } else {
        const double total =
            s->publisher ? kInductiveBinaryRate : kNodeRate;
        rate = total / static_cast<double>(binaries);
        // Stagger the connections so arrivals interleave evenly.
        phase_offset = static_cast<double>(binary_index++) / total;
      }
      const OpenLoopSchedule schedule(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(phase_offset)),
          rate);
      Stream* stream = s->streams[k].get();
      const QueryMix* mix = &s->mix;
      const std::int64_t id_base = s->NextIdBase(k);
      threads.emplace_back([=] {
        try {
          // Query spans nest under the phase span, whose self time is the
          // connection's idle time.
          std::optional<ScopedSpan> phase_span;
          if (r->spans) {
            phase_span.emplace(r->spans.get(),
                               open ? "serve.open_loop" : "serve.closed_loop",
                               static_cast<std::uint64_t>(id_base));
          }
          if (open) {
            OpenLoop(stream, *mix, schedule, start, end, k * 131, id_base, r);
          } else {
            ClosedLoop(stream, *mix, start, end, k * 131, id_base, r);
          }
        } catch (const std::exception& e) {
          r->error = e.what();
        }
      });
    }
    if (publish && s->publisher) {
      threads.emplace_back([&] {
        try {
          phase.publish_ms =
              PublishLoop(s, end, &publish_outcomes,
                          traced ? phase.publish_spans.get() : nullptr);
        } catch (const std::exception& e) {
          publish_error = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ctx->report.outcomes().Merge(publish_outcomes);
  if (!publish_error.empty()) {
    ctx->report.outcomes().Add(Outcome::kFailed);
    throw std::runtime_error("publisher: " + publish_error);
  }
  for (StreamResult& r : phase.streams) {
    ctx->report.outcomes().Merge(r.outcomes);
    if (!r.error.empty()) {
      ctx->report.outcomes().Add(Outcome::kFailed);
      throw std::runtime_error("load connection: " + r.error);
    }
  }
  return phase;
}

/// The phases a figure is taken over (one per kept set-up).
using Phases = std::vector<const PhaseResult*>;

/// Open-loop latency samples of the streams of one transport.
OpenLoopStats OpenStats(const Phases& phases, bool json) {
  OpenLoopStats merged;
  for (const PhaseResult* phase : phases) {
    for (std::size_t k = 0; k < phase->streams.size(); ++k) {
      if (phase->json[k] == json) merged.Merge(phase->streams[k].open);
    }
  }
  return merged;
}

/// Each phase is cut into this many equal windows; each figure is the
/// median over all windows, so a transient stall moves one window, not the
/// result.
constexpr int kWindows = 10;

/// Closed-loop correct answers per second of one transport: the median
/// over the windows.
double ClosedQps(const Phases& phases, bool json) {
  std::vector<double> per_window;
  for (const PhaseResult* phase : phases) {
    std::vector<double> counts(kWindows, 0.0);
    const double width = phase->seconds / kWindows;
    for (std::size_t k = 0; k < phase->streams.size(); ++k) {
      if (phase->json[k] != json) continue;
      for (double t : phase->streams[k].closed_answered_s) {
        const int w = std::min(kWindows - 1, static_cast<int>(t / width));
        counts[static_cast<std::size_t>(w)] += 1.0 / width;
      }
    }
    per_window.insert(per_window.end(), counts.begin(), counts.end());
  }
  return Median(per_window);
}

/// Open-loop p50 latency of one transport: the median over the windows
/// (by due time) of each window's median.
double OpenP50Us(const Phases& phases, bool json) {
  std::vector<double> medians;
  for (const PhaseResult* phase : phases) {
    std::vector<std::vector<double>> windows(kWindows);
    const double width = phase->seconds / kWindows;
    for (std::size_t k = 0; k < phase->streams.size(); ++k) {
      if (phase->json[k] != json) continue;
      const StreamResult& r = phase->streams[k];
      for (std::size_t i = 0; i < r.open_due_s.size(); ++i) {
        const int w = std::min(kWindows - 1,
                               static_cast<int>(r.open_due_s[i] / width));
        windows[static_cast<std::size_t>(w)].push_back(r.open.latency_us()[i]);
      }
    }
    for (const std::vector<double>& w : windows) {
      if (!w.empty()) medians.push_back(Median(w));
    }
  }
  if (medians.empty()) throw std::runtime_error("no answered open-loop query");
  return Median(medians);
}

std::vector<double> PublishMs(const Phases& phases) {
  std::vector<double> ms;
  for (const PhaseResult* phase : phases) {
    ms.insert(ms.end(), phase->publish_ms.begin(), phase->publish_ms.end());
  }
  return ms;
}

/// Open-loop p50 (windowed median) and p99 of one transport. The p99 is
/// reported only when at least ten samples lie beyond it; otherwise the
/// highest supported percentile is named in its place.
void ReportLatency(Context* ctx, const Phases& open, bool json,
                   const std::string& p50_name, const std::string& p99_name) {
  ctx->report.Metric(p50_name, OpenP50Us(open, json), "us");
  const OpenLoopStats stats = OpenStats(open, json);
  const std::vector<double>& us = stats.latency_us();
  const auto tail = SupportedTail(us);
  if (tail && tail->percentile == 99) {
    ctx->report.Metric(p99_name, tail->value, "us");
  } else {
    ctx->report.Absent(p99_name, tail ? "only " + tail->Label() + " = " +
                                            std::to_string(tail->value) +
                                            " us is supported by " +
                                            std::to_string(us.size()) +
                                            " samples"
                                      : "too few samples");
  }
}

/// The untraced measurement: ctx->seconds split evenly over the kept
/// set-ups, each measured open loop then closed loop. Fills the end-to-end
/// metrics.
void MeasureServe(Context* ctx,
                  const std::vector<std::unique_ptr<ServeSetup>>& setups) {
  const bool inductive = setups.front()->publisher != nullptr;
  const double phase_s = ctx->seconds / (2.0 * setups.size());
  std::vector<PhaseResult> results;
  results.reserve(2 * setups.size());
  Phases open, closed;
  for (const std::unique_ptr<ServeSetup>& s : setups) {
    SetPhase("measure: open loop");
    results.push_back(RunPhase(ctx, s.get(), true, phase_s, false, true));
    open.push_back(&results.back());
    SetPhase("measure: closed loop");
    results.push_back(RunPhase(ctx, s.get(), false, phase_s, false, true));
    closed.push_back(&results.back());
  }
  ReportLatency(ctx, open, false, "p50_us.binary", "p99_us.binary");
  ctx->report.Metric("op_ms", 1e-3 * OpenP50Us(open, false), "ms");
  double qps = ClosedQps(closed, false);
  ctx->report.Metric("qps.binary", qps, "1/s");
  if (inductive) {
    ReportLatency(ctx, open, true, "p50_us.json", "p99_us.json");
    const double json_qps = ClosedQps(closed, true);
    ctx->report.Metric("qps.json", json_qps, "1/s");
    qps += json_qps;
    Phases all = open;
    all.insert(all.end(), closed.begin(), closed.end());
    const std::vector<double> publish = PublishMs(all);
    if (publish.empty()) throw std::runtime_error("no publish completed");
    ctx->report.Metric("publish_ms", Median(publish), "ms");
  }
  ctx->report.Metric("ops_per_s", qps, "1/s");
  const OpenLoopStats binary = OpenStats(open, false);
  ctx->report.Metric("loadgen.late_p99_us",
                     NearestRankPercentile(binary.lateness_us(), 99), "us");
  ctx->report.Metric("loadgen.sent", static_cast<double>(binary.sent()),
                     "count");
  ctx->report.Metric("error_rate", ctx->report.outcomes().ErrorRate(),
                     "fraction");

  // Stamp the server's own build block, and its view of the batching.
  SetPhase("measure: stats verb");
  const std::string stats =
      static_cast<BinaryStream*>(setups.front()->streams[0].get())
          ->client()
          .Admin(gcon::AdminVerb::kStats);
  ctx->report.Note("server_build", JsonObject(stats, "build"));
  ctx->report.Metric("serve.batcher.mean_batch",
                     JsonNumber(stats, "mean_batch"), "count");
}

/// Traced-run overhead: the open-loop p50 untraced, then traced.
void ServeTraceOverhead(Context* ctx, ServeSetup* s) {
  SetPhase("trace: overhead");
  const PhaseResult off = RunPhase(ctx, s, true, ctx->seconds / 2, false,
                                   true);
  const PhaseResult on = RunPhase(ctx, s, true, ctx->seconds / 2, true, true);
  ReportTraceOverhead(ctx, 1e-3 * OpenP50Us({&off}, false),
                      1e-3 * OpenP50Us({&on}, false));
}

/// Sets up kSetups independent draws (a server each), reporting the median
/// set-up time as setup_s, and keeps them all: the measurement rotates over
/// the servers, so neither one draw of the inputs nor one server process's
/// thread placement decides the result.
template <typename F>
std::vector<std::unique_ptr<ServeSetup>> RepeatedServeSetup(Context* ctx,
                                                            F&& setup) {
  std::vector<double> secs;
  std::vector<std::unique_ptr<ServeSetup>> kept;
  for (int r = 0; r < kSetups; ++r) {
    secs.push_back(TimeIt([&] {
      kept.push_back(setup("setup" + std::to_string(r), r));
    }));
  }
  ctx->report.Metric("setup_s", Median(secs), "s");
  return kept;
}

// ------------------------------------------------------------- profiles

/// Per-call cost of `f` over `calls` calls, in microseconds, under a span.
template <typename F>
double PerCallUs(SpanRecorder* spans, const std::string& name, int calls,
                 F&& f) {
  ScopedSpan span(spans, name, 0);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < calls; ++i) f(i);
  return MicrosBetween(start, Clock::now()) / calls;
}

/// Shared part of both serving profiles: traced open and closed phases
/// against the live server, its stats and metrics verbs around the open
/// phase, and the session's batch kernel at the live mean batch size.
void ProfileLiveServer(Context* ctx, ServeSetup* s, SpanRecorder* spans,
                       const std::string& suffix) {
  const bool inductive = s->publisher != nullptr;
  auto& admin = static_cast<BinaryStream*>(s->streams[0].get())->client();
  SetPhase("trace: " + suffix + " stats before");
  const std::string metrics0 = admin.Admin(gcon::AdminVerb::kMetrics);
  const std::string stats0 = admin.Admin(gcon::AdminVerb::kStats);
  const double phase_s = kProfilePhaseS;
  SetPhase("trace: " + suffix + " open loop");
  PhaseResult open = RunPhase(ctx, s, true, phase_s, true, inductive);
  SetPhase("trace: " + suffix + " stats after");
  const std::string stats1 = admin.Admin(gcon::AdminVerb::kStats);
  const std::string metrics1 = admin.Admin(gcon::AdminVerb::kMetrics);
  SetPhase("trace: " + suffix + " closed loop");
  PhaseResult closed = RunPhase(ctx, s, false, phase_s, true, inductive);
  for (PhaseResult* phase : {&open, &closed}) {
    for (StreamResult& r : phase->streams) spans->Merge(*r.spans);
    spans->Merge(*phase->publish_spans);
  }

  const std::string build = JsonObject(stats1, "build");
  if (!build.empty()) ctx->report.Note("server_build", build);
  const double queries =
      JsonNumber(stats1, "queries") - JsonNumber(stats0, "queries");
  ctx->report.Metric("serve.bytes_per_query." + suffix,
                     (PrometheusSum(metrics1, "gcon_serve_bytes_total") -
                      PrometheusSum(metrics0, "gcon_serve_bytes_total")) /
                         queries,
                     "bytes");
  ctx->report.Metric("linalg.gemm_flops_per_query." + suffix,
                     (PrometheusSum(metrics1, "gcon_gemm_flops_total") -
                      PrometheusSum(metrics0, "gcon_gemm_flops_total")) /
                         queries,
                     "flop");
  // The batcher's histogram is cumulative since server start; the open
  // phase dominates it (warm-up is a 0.3 s burst).
  const double mean_batch = JsonNumber(stats1, "mean_batch");
  ctx->report.Metric("serve.batcher.mean_batch." + suffix, mean_batch,
                     "count");
  ctx->report.Metric("serve.batcher.p50_us." + suffix,
                     JsonNumber(stats1, "p50_us"), "us");
  ctx->report.Metric("serve.batcher.p99_us." + suffix,
                     JsonNumber(stats1, "p99_us"), "us");
  ctx->report.Metric("serve.batcher.queue_peak." + suffix,
                     JsonNumber(stats1, "queue_peak"), "count");

  const OpenLoopStats binary = OpenStats({&open}, false);
  ReportLatency(ctx, {&open}, false, "serve.client.p50_us.binary." + suffix,
                "serve.client.p99_us.binary." + suffix);
  ctx->report.Metric("serve.frontend_p50_gap_us." + suffix,
                     OpenP50Us({&open}, false) - JsonNumber(stats1, "p50_us"),
                     "us");
  ctx->report.Metric("serve.client.qps.binary." + suffix,
                     ClosedQps({&closed}, false), "1/s");
  ctx->report.Metric("loadgen.late_p99_us." + suffix,
                     NearestRankPercentile(binary.lateness_us(), 99), "us");
  ctx->report.Metric("loadgen.sent." + suffix,
                     static_cast<double>(binary.sent()), "count");
  if (inductive) {
    ReportLatency(ctx, {&open}, true, "serve.client.p50_us.json." + suffix,
                  "serve.client.p99_us.json." + suffix);
    ctx->report.Metric("serve.client.qps.json." + suffix,
                       ClosedQps({&closed}, true), "1/s");
    const std::vector<double> publish = PublishMs({&open, &closed});
    if (!publish.empty()) {
      ctx->report.Metric("serve.client.publish_ms." + suffix, Median(publish),
                         "ms");
    }
  }

  // The batch kernel at the live server's mean batch size, on the
  // workload's own requests, in-process.
  SetPhase("trace: " + suffix + " session batch");
  const gcon::InferenceSession session(gcon::LoadModel(s->artifacts[0]),
                                       s->graph);
  const std::size_t batch =
      static_cast<std::size_t>(std::max(1.0, std::round(mean_batch)));
  std::vector<const gcon::ServeRequest*> requests;
  const int calls = inductive ? 200 : 5000;
  ctx->report.Metric(
      "serve.session.batch_us." + suffix,
      PerCallUs(spans, "serve.InferenceSession.QueryBatch", calls,
                [&](int i) {
                  requests.clear();
                  for (std::size_t b = 0; b < batch; ++b) {
                    const std::size_t q =
                        (i * batch + b) % s->mix.requests.size();
                    requests.push_back(&s->mix.requests[q]);
                  }
                  const gcon::Matrix out = session.QueryBatch(requests);
                  if (out.rows() != batch) {
                    throw std::runtime_error("QueryBatch: short block");
                  }
                }),
      "us");
}

}  // namespace

void RunServeNode(Context* ctx) {
  if (ctx->trace) {
    auto s = SetUpNode(ctx, "setup0", 0);
    ServeTraceOverhead(ctx, s.get());
    return;
  }
  MeasureServe(ctx, RepeatedServeSetup(ctx, [&](const std::string& name,
                                                int draw) {
                 return SetUpNode(ctx, name, draw);
               }));
}

void RunServeInductive(Context* ctx) {
  if (ctx->trace) {
    auto s = SetUpInductive(ctx, "setup0", 0);
    ServeTraceOverhead(ctx, s.get());
    return;
  }
  MeasureServe(ctx, RepeatedServeSetup(ctx, [&](const std::string& name,
                                                int draw) {
                 return SetUpInductive(ctx, name, draw);
               }));
}

void ProfileServeNode(Context* ctx, SpanRecorder* spans) {
  auto s = SetUpNode(ctx, "profile_node", 0);
  ProfileLiveServer(ctx, s.get(), spans, "node");

  // Frame codec on the workload's own bytes.
  SetPhase("trace: frame codec");
  std::vector<std::string> payloads;
  for (const std::string& frame : s->mix.frames) {
    payloads.push_back(frame.substr(gcon::kFrameHeaderBytes));
  }
  gcon::ServeRequest parsed;
  std::string error;
  ctx->report.Metric(
      "serve.frame.parse_us",
      PerCallUs(spans, "serve.frame.ParseRequestPayload", 200000, [&](int i) {
        const std::string& p = payloads[static_cast<std::size_t>(i) %
                                        payloads.size()];
        if (!gcon::ParseRequestPayload(p.data(), p.size(), &parsed, &error)) {
          throw std::runtime_error("ParseRequestPayload: " + error);
        }
      }),
      "us");
  std::vector<gcon::ServeResponse> responses;
  for (std::size_t q = 0; q < 256; ++q) {
    gcon::ServeResponse r;
    r.id = static_cast<std::int64_t>(q);
    r.node = s->mix.requests[q].node;
    r.logits = *s->mix.refs[q][0];
    responses.push_back(std::move(r));
  }
  std::size_t bytes = 0;
  ctx->report.Metric(
      "serve.frame.encode_us",
      PerCallUs(spans, "serve.frame.EncodeResponseFrame", 200000, [&](int i) {
        bytes += gcon::EncodeResponseFrame(
                     responses[static_cast<std::size_t>(i) % responses.size()])
                     .size();
      }),
      "us");
  if (bytes == 0) throw std::runtime_error("EncodeResponseFrame wrote nothing");

  // The same requests and options in-process, without the socket: the gap
  // to the TCP numbers is the front end's share.
  SetPhase("trace: in-process server");
  gcon::ServeOptions options;
  options.threads = kServeThreads;
  options.max_batch = 32;
  options.max_wait_us = 200;
  options.max_queue = 4096;
  gcon::obs::TraceRecorder::Global().Configure(64, 0);
  gcon::InferenceServer server(
      gcon::InferenceSession(gcon::LoadModel(s->artifacts[0]), s->graph),
      options);
  const double seconds = kProfilePhaseS;
  std::vector<std::vector<double>> latency(kNodeConnections);
  std::vector<OutcomeCounts> outcomes(kNodeConnections);
  std::vector<std::uint64_t> done(kNodeConnections, 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (int k = 0; k < kNodeConnections; ++k) {
      threads.emplace_back([&, k] {
        std::deque<std::pair<std::future<gcon::ServeResponse>,
                             std::pair<std::size_t, Clock::time_point>>>
            inflight;
        std::uint64_t i = 0;
        auto submit = [&] {
          const std::size_t q = PickQuery(s->mix, i++, k * 131);
          gcon::ServeRequest request;
          request.node = s->mix.requests[q].node;
          const Clock::time_point t = Clock::now();
          inflight.emplace_back(server.QueryAsync(std::move(request)),
                                std::make_pair(q, t));
        };
        for (int w = 0; w < kClosedWindow; ++w) submit();
        while (!inflight.empty()) {
          const gcon::ServeResponse response = inflight.front().first.get();
          const Clock::time_point now = Clock::now();
          const std::size_t q = inflight.front().second.first;
          outcomes[k].Add(
              ClassifyAnswer(false, response.logits, s->mix.refs[q]));
          if (now <= end) {
            latency[k].push_back(
                MicrosBetween(inflight.front().second.second, now));
            ++done[k];
          }
          inflight.pop_front();
          if (now < end) submit();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  server.Drain();
  std::vector<double> all;
  std::uint64_t total = 0;
  for (int k = 0; k < kNodeConnections; ++k) {
    ctx->report.outcomes().Merge(outcomes[k]);
    all.insert(all.end(), latency[k].begin(), latency[k].end());
    total += done[k];
  }
  spans->Add("serve.InferenceServer.QueryAsync.closed_loop", 0, start, end);
  ctx->report.Metric("serve.inproc.qps", static_cast<double>(total) / seconds,
                     "1/s");
  ctx->report.Metric("serve.inproc.p50_us", Median(all), "us");
}

void ProfileServeInductive(Context* ctx, SpanRecorder* spans) {
  auto s = SetUpInductive(ctx, "profile_inductive", 0);
  ProfileLiveServer(ctx, s.get(), spans, "inductive");

  // JSON codec on the workload's own lines and answers.
  SetPhase("trace: wire codec");
  std::vector<std::string> lines;
  for (std::size_t q = 0; q < s->mix.json_tails.size(); ++q) {
    std::string line = JsonLine(s->mix.json_tails[q], static_cast<int>(q));
    line.pop_back();  // the parser takes a line without its newline
    lines.push_back(std::move(line));
  }
  gcon::WireCommand command{};
  gcon::ServeRequest parsed;
  std::string error;
  ctx->report.Metric(
      "serve.wire.parse_us",
      PerCallUs(spans, "serve.wire.ParseWireRequest", 2000, [&](int i) {
        if (!gcon::ParseWireRequest(
                lines[static_cast<std::size_t>(i) % lines.size()], &command,
                &parsed, &error)) {
          throw std::runtime_error("ParseWireRequest: " + error);
        }
      }),
      "us");
  std::vector<gcon::ServeResponse> responses;
  for (std::size_t q = 0; q < s->mix.requests.size(); ++q) {
    gcon::ServeResponse r;
    r.id = static_cast<std::int64_t>(q);
    r.logits = s->expected[0][q];
    responses.push_back(std::move(r));
  }
  std::size_t bytes = 0;
  ctx->report.Metric(
      "serve.wire.format_us",
      PerCallUs(spans, "serve.wire.FormatWireResponse", 20000, [&](int i) {
        bytes += gcon::FormatWireResponse(
                     responses[static_cast<std::size_t>(i) % responses.size()])
                     .size();
      }),
      "us");
  if (bytes == 0) throw std::runtime_error("FormatWireResponse wrote nothing");

  // What one publish does, split by layer.
  SetPhase("trace: publish layers");
  std::vector<double> load_ms, build_ms, ledger_ms;
  const std::string ledger_path = s->dir + "/profile.ledger";
  gcon::BudgetLedger ledger(ledger_path);
  for (int k = 0; k < 6; ++k) {
    const std::uint64_t id = 3000 + static_cast<std::uint64_t>(k);
    ScopedSpan root(spans, "publish.replay", id);
    std::optional<gcon::GconArtifact> artifact;
    {
      ScopedSpan span(spans, "core.LoadModel", id);
      load_ms.push_back(1e3 * TimeIt([&] {
        artifact.emplace(gcon::LoadModel(s->artifacts[k % 2]));
      }));
    }
    {
      ScopedSpan span(spans, "serve.InferenceSession", id);
      build_ms.push_back(1e3 * TimeIt([&] {
        const gcon::InferenceSession session(std::move(*artifact), s->graph);
        if (session.num_nodes() != s->graph->num_nodes()) {
          throw std::runtime_error("session over the wrong population");
        }
      }));
    }
    {
      ScopedSpan span(spans, "dp.BudgetLedger.ReserveCommit", id);
      ledger_ms.push_back(1e3 * TimeIt([&] {
        const gcon::BudgetLedger::Reservation reservation =
            ledger.Reserve(1, "default", 1.0, 1e-5, id, 0.0);
        ledger.Commit(reservation);
      }));
    }
  }
  ctx->report.Metric("core.load_ms", Median(load_ms), "ms");
  ctx->report.Metric("serve.session.build_ms", Median(build_ms), "ms");
  ctx->report.Metric("dp.ledger_commit_ms", Median(ledger_ms), "ms");
}

}  // namespace perfbench
