#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <iostream>
#include <locale>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dp/budget_ledger.h"
#include "linalg/ops.h"
#include "obs/build_info.h"
#include "propagation/cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/fault_injection.h"
#include "serve/frame.h"
#include "serve/serve_error.h"
#include "serve/wire.h"

namespace gcon {
namespace {

std::vector<ModelRouter::NamedModel> SingleModel(InferenceSession session) {
  std::vector<ModelRouter::NamedModel> models;
  models.push_back({"default", std::move(session)});
  return models;
}

/// Cumulative privacy budget released for one model name. GAP-style
/// repeated-release accounting: the gauge MIRRORS the budget ledger's
/// charged total for (population, model) — restored from the ledger at
/// construction (a restart, or a second server in the same process, must
/// show the running total, never the incoming artifact's own epsilon) and
/// re-set to the new total after every committed publish.
obs::Gauge* EpsilonGauge(const std::string& model) {
  return obs::MetricsRegistry::Global().gauge(
      "gcon_dp_epsilon",
      "Cumulative epsilon released across publishes of this model "
      "(RDP-accounted artifacts; repeated-release total).",
      {{"model", model}});
}

}  // namespace

InferenceServer::InferenceServer(InferenceSession session,
                                 ServeOptions options)
    : InferenceServer(SingleModel(std::move(session)), options) {}

InferenceServer::InferenceServer(std::vector<ModelRouter::NamedModel> models,
                                 ServeOptions options)
    : router_(std::move(models)) {
  // One handler per model, all run by the batcher's shared workers: one
  // gather + one GEMM per batch, then per-query argmax. Each batch takes
  // ONE owning snapshot of its model's published session — a concurrent
  // Publish flips the router slot without disturbing this batch (the
  // snapshot keeps the old version alive until the batch completes, the
  // "drain in-flight against the old session" half of hot-swap), and a
  // batch never mixes two versions.
  std::vector<MicroBatcher::BatchHandler> handlers;
  handlers.reserve(static_cast<std::size_t>(router_.size()));
  for (int m = 0; m < router_.size(); ++m) {
    handlers.push_back([this, m](std::vector<PendingQuery*>& batch) {
      const std::shared_ptr<const InferenceSession> session =
          router_.SessionRef(m);
      // Chaos site: the installed callback (a Publish against this very
      // model) runs inside the snapshot-to-GEMM window — the exact race
      // the atomic hot-swap must win.
      FaultInjector::Global().FireCallback(Fault::kSwapDuringBatch);
      std::vector<const ServeRequest*> requests;
      requests.reserve(batch.size());
      for (PendingQuery* p : batch) requests.push_back(&p->request);
      const Matrix logits = session->QueryBatch(requests);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i]->response.logits = logits.RowCopy(i);
        batch[i]->response.label =
            static_cast<int>(RowArgMax(logits, i));
      }
    });
  }
  // Budget accounting before any query is admitted. The ledger — not the
  // incoming artifacts — is the system of record: constructing a server
  // over an already-charged release restores the cumulative total (the old
  // code Set() the gauge to artifact_epsilon here, silently erasing every
  // prior release's charge on restart or reconstruction).
  options.Validate();  // budget_cap checked before the ledger spends on it
  budget_cap_ = options.budget_cap;
  ledger_ = options.budget_ledger.empty()
                ? std::make_unique<BudgetLedger>()
                : std::make_unique<BudgetLedger>(options.budget_ledger);
  model_fp_.reserve(static_cast<std::size_t>(router_.size()));
  std::vector<std::string> queue_labels;
  queue_labels.reserve(static_cast<std::size_t>(router_.size()));
  for (int m = 0; m < router_.size(); ++m) {
    queue_labels.push_back(router_.name(m));
    const std::shared_ptr<const InferenceSession> session =
        router_.SessionRef(m);
    model_fp_.push_back(FingerprintGraph(*session->graph_ptr()));
    const double total = ledger_->AccountArtifact(
        model_fp_.back(), router_.name(m), session->artifact_epsilon(),
        session->artifact_delta(), session->artifact_fingerprint(),
        budget_cap_);
    EpsilonGauge(router_.name(m))->Set(total);
  }
  batcher_ = std::make_unique<MicroBatcher>(options, std::move(handlers),
                                            std::move(queue_labels));
}

InferenceServer::~InferenceServer() { Stop(); }

void InferenceServer::Stop() { batcher_->Stop(); }

std::future<ServeResponse> InferenceServer::QueryAsync(ServeRequest request) {
  const int model = router_.Resolve(request.model);
  // Hold an owning snapshot across validation so a concurrent Publish
  // cannot retire the session mid-check. (Publish enforces that the
  // replacement serves the same population, so a request valid against
  // this snapshot stays valid for whichever version its batch executes.)
  router_.SessionRef(model)->ValidateRequest(request);
  return batcher_->Submit(static_cast<std::size_t>(model),
                          std::move(request));
}

ServeResponse InferenceServer::Query(ServeRequest request) {
  return QueryAsync(std::move(request)).get();
}

double InferenceServer::PublishAccounted(const std::string& target,
                                         InferenceSession session) {
  // Resolve first: a publish against an unknown model must fail before the
  // ledger is touched (no reserve/abort churn for a request that cannot
  // possibly release anything). The key uses the SERVING population's
  // fingerprint — the router guarantees a swap never changes it.
  const int index = router_.Resolve(target);
  std::lock_guard<std::mutex> lock(publish_mu_);
  BudgetLedger::Reservation reservation;
  try {
    reservation = ledger_->Reserve(
        model_fp_[static_cast<std::size_t>(index)], target,
        session.artifact_epsilon(), session.artifact_delta(),
        session.artifact_fingerprint(), budget_cap_);
  } catch (const BudgetExhaustedError& e) {
    // The coded rejection both transports format; old bits keep serving.
    throw ServeError(ServeErrorCode::kBudgetExhausted, e.what());
  }
  try {
    router_.Publish(target, std::move(session));
  } catch (...) {
    // Failed swap (population mismatch, ...): refund — a publish that
    // never released anything must not spend budget.
    ledger_->Abort(reservation);
    throw;
  }
  const double total = ledger_->Commit(reservation);
  EpsilonGauge(target)->Set(total);
  return total;
}

void InferenceServer::Publish(const std::string& name,
                              InferenceSession session) {
  const std::string target =
      name.empty() ? router_.default_model() : name;
  PublishAccounted(target, std::move(session));
}

std::string InferenceServer::PublishFromFile(const std::string& name,
                                             const std::string& path) {
  const std::string target =
      name.empty() ? router_.default_model() : name;
  const int index = router_.Resolve(target);
  // The replacement is built over the SAME shared serving population the
  // current version uses — a swap changes model weights, never the graph.
  // Loading and validating happen BEFORE any ledger touch: an unreadable
  // artifact or hostile header fails here with the budget unspent.
  InferenceSession incoming = InferenceSession::FromFile(
      path, router_.SessionRef(index)->graph_ptr());
  std::ostringstream out;
  out.imbue(std::locale::classic());  // wire bytes are locale-invariant
  out.precision(17);
  out << "{\"published\": \"" << target
      << "\", \"nodes\": " << incoming.num_nodes()
      << ", \"classes\": " << incoming.num_classes()
      << ", \"features\": " << incoming.feature_dim() << ", \"per_query\": "
      << (incoming.per_query() ? "true" : "false")
      << ", \"epsilon\": " << incoming.artifact_epsilon();
  const double total = PublishAccounted(target, std::move(incoming));
  out << ", \"epsilon_total\": " << total << "}";
  return out.str();
}

std::string InferenceServer::BudgetJson() const {
  std::ostringstream out;
  out.imbue(std::locale::classic());  // wire bytes are locale-invariant
  out.precision(17);
  const auto escape = [](const std::string& s) {
    std::string escaped;
    escaped.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c);
    }
    return escaped;
  };
  out << "{\"budget\": [";
  for (int m = 0; m < router_.size(); ++m) {
    const BudgetLedger::BudgetTotals totals = ledger_->Totals(
        model_fp_[static_cast<std::size_t>(m)], router_.name(m));
    out << (m == 0 ? "" : ", ") << "{\"model\": \"" << router_.name(m)
        << "\", \"epsilon\": " << totals.epsilon
        << ", \"delta\": " << totals.delta
        << ", \"publishes\": " << totals.publishes
        << ", \"cap\": " << budget_cap_;
    if (budget_cap_ > 0) {
      out << ", \"remaining\": " << std::max(0.0, budget_cap_ - totals.epsilon);
    }
    out << "}";
  }
  out << "], \"ledger\": \"" << escape(ledger_->path())
      << "\", \"persistent\": " << (ledger_->persistent() ? "true" : "false")
      << "}";
  return out.str();
}

void InferenceServer::BeginDrain() { batcher_->BeginDrain(); }

void InferenceServer::Drain() { batcher_->Drain(); }

LatencyStats::Snapshot InferenceServer::latency() const {
  if (router_.size() == 1) return batcher_->latency(0).Summarize();
  LatencyStats merged;
  for (int m = 0; m < router_.size(); ++m) {
    merged.Add(batcher_->latency(static_cast<std::size_t>(m)));
  }
  return merged.Summarize();
}

LatencyStats::Snapshot InferenceServer::latency(int model) const {
  return batcher_->latency(static_cast<std::size_t>(model)).Summarize();
}

std::uint64_t InferenceServer::queries_served() const {
  return batcher_->queries_served();
}

std::uint64_t InferenceServer::batches_run() const {
  return batcher_->batches_run();
}

void InferenceServer::ResetStats() { batcher_->ResetCounters(); }

std::string InferenceServer::MetricsText() {
  batcher_->RefreshObsMetrics();
  return obs::MetricsRegistry::Global().PrometheusText();
}

namespace {

void AppendCounters(std::ostream* out, std::uint64_t queries,
                    std::uint64_t batches,
                    const LatencyStats::Snapshot& lat,
                    std::uint64_t rejected_overload,
                    std::uint64_t rejected_deadline,
                    std::uint64_t queue_peak) {
  *out << "\"queries\": " << queries << ", \"batches\": " << batches
       << ", \"mean_batch\": "
       << (batches == 0 ? 0.0
                        : static_cast<double>(queries) /
                              static_cast<double>(batches))
       << ", \"mean_us\": " << lat.mean_us << ", \"p50_us\": " << lat.p50_us
       << ", \"p95_us\": " << lat.p95_us << ", \"p99_us\": " << lat.p99_us
       << ", \"max_us\": " << lat.max_us
       << ", \"rejected_overload\": " << rejected_overload
       << ", \"rejected_deadline\": " << rejected_deadline
       << ", \"queue_peak\": " << queue_peak;
}

}  // namespace

std::string InferenceServer::StatsJson() const {
  std::ostringstream out;
  out.imbue(std::locale::classic());  // wire bytes are locale-invariant
  out.precision(6);
  // Aggregate queue_peak is the max across the per-model queues (peaks on
  // different queues need not coincide in time, so a sum would overstate).
  std::uint64_t peak = 0;
  for (int m = 0; m < router_.size(); ++m) {
    peak = std::max(peak, batcher_->queue_peak(static_cast<std::size_t>(m)));
  }
  out << "{";
  AppendCounters(&out, queries_served(), batches_run(), latency(),
                 batcher_->rejected_overload(), batcher_->rejected_deadline(),
                 peak);
  out << ", \"models\": [";
  for (int m = 0; m < router_.size(); ++m) {
    const auto q = static_cast<std::size_t>(m);
    out << (m == 0 ? "" : ", ") << "{\"name\": \"" << router_.name(m)
        << "\", ";
    AppendCounters(&out, batcher_->queries_served(q), batcher_->batches_run(q),
                   latency(m), batcher_->rejected_overload(q),
                   batcher_->rejected_deadline(q), batcher_->queue_peak(q));
    out << "}";
  }
  out << "], \"build\": " << obs::BuildInfoJson() << "}";
  return out.str();
}

namespace {

[[noreturn]] void SocketError(const std::string& what) {
  throw std::runtime_error("serve: " + what + " (" +
                           std::strerror(errno) + ")");
}

/// Writes the whole line, SIGPIPE-safe (MSG_NOSIGNAL — a vanished client
/// must surface as a return code on this thread, not a process signal).
/// Returns false when the connection is unusable: the peer went away, or
/// the send timeout (ServeOptions.io_timeout_ms via SO_SNDTIMEO) expired
/// because the client stopped reading — either way the caller closes
/// rather than letting a stalled client pin this thread. A partial write
/// (short send) is retried from where it stopped, never re-sent from the
/// start, so the byte stream can tear but never duplicate.
bool SendAll(int fd, const std::string& data) {
  if (FaultInjector::Global().ShouldFire(Fault::kTornSocket)) {
    // Chaos site: deliver half the line, then kill the connection — the
    // mid-response client crash. The server side must just close cleanly.
    ::send(fd, data.data(), data.size() / 2, MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;  // signal — a retry, not an error
    if (n <= 0) return false;  // peer gone or SO_SNDTIMEO expired
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Per-transport registry handles (connections, bytes in/out), fetched
/// once per process and indexed by obs transport tag.
struct TransportMetrics {
  obs::Counter* connections = nullptr;
  obs::Counter* bytes_in = nullptr;
  obs::Counter* bytes_out = nullptr;
};

const TransportMetrics& TransportCounters(int transport) {
  static const std::array<TransportMetrics, 2> metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    std::array<TransportMetrics, 2> m{};
    for (int t = 0; t < 2; ++t) {
      const std::string name = obs::TransportName(t);
      m[static_cast<std::size_t>(t)] = {
          registry.counter("gcon_serve_connections_total",
                           "Accepted TCP connections, by transport.",
                           {{"transport", name}}),
          registry.counter("gcon_serve_bytes_total",
                           "Wire bytes moved, by transport and direction.",
                           {{"transport", name}, {"direction", "in"}}),
          registry.counter("gcon_serve_bytes_total",
                           "Wire bytes moved, by transport and direction.",
                           {{"transport", name}, {"direction", "out"}}),
      };
    }
    return m;
  }();
  return metrics[static_cast<std::size_t>(transport)];
}

/// Serves one connection line-by-line. Query lines are pipelined through
/// QueryAsync (so a burst from one client coalesces into one batch);
/// responses flush in request order at chunk boundaries and before any
/// admin/quit/error line, preserving the ordered-wire contract.
void ServeJsonConnection(InferenceServer* server, int fd) {
  const TransportMetrics& tm = TransportCounters(obs::kTransportJson);
  tm.connections->Increment();
  std::string buffer;
  struct InFlight {
    std::int64_t id;
    std::future<ServeResponse> future;
    std::shared_ptr<obs::RequestTrace> trace;
  };
  std::deque<InFlight> pending;
  char chunk[4096];

  auto send_line = [&](const std::string& data) -> bool {
    const bool ok = SendAll(fd, data);
    if (ok) tm.bytes_out->Increment(data.size());
    return ok;
  };

  // Returns false when the socket died mid-flush; the remaining futures
  // are still drained (the batcher resolves every accepted query — the
  // responses just have no live reader), then the caller closes.
  auto flush_pending = [&]() -> bool {
    bool alive = true;
    while (!pending.empty()) {
      try {
        const ServeResponse response = pending.front().future.get();
        if (alive) {
          alive = send_line(FormatWireResponse(response) + "\n");
        }
      } catch (const ServeError& e) {
        // Structured rejection (deadline expired in queue): the coded
        // line lets a pipelined client tell "retry" from "bug".
        if (alive) {
          alive = send_line(FormatWireError(pending.front().id, e.code(),
                                            e.what()) +
                            "\n");
        }
      } catch (const std::exception& e) {
        // Batch-handler failure: the error line must still carry the id
        // the client used, or a pipelined client cannot attribute it.
        if (alive) {
          alive = send_line(FormatWireError(pending.front().id, e.what()) +
                            "\n");
        }
      }
      obs::TraceRecorder::Global().Finish(pending.front().trace);
      pending.pop_front();
    }
    return alive;
  };

  // A line (or partial line) past the size cap means the client lost
  // framing — report with whatever id is recoverable, then hang up; there
  // is no byte to resync on.
  auto oversized = [&](const std::string& data) {
    std::int64_t id = 0;
    RecoverWireId(data, &id);
    flush_pending();
    send_line(FormatWireError(
                  id, "oversized request line (limit " +
                          std::to_string(kMaxWireLineBytes) + " bytes)") +
              "\n");
  };

  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;  // signal — retry the read
    // SO_RCVTIMEO expired: the client sent nothing for io_timeout_ms. A
    // stalled (or vanished-without-FIN) client must not pin this thread
    // forever, so hang up; anything it already submitted was flushed at
    // the last chunk boundary.
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) break;  // EOF or a dead socket
    tm.bytes_in->Increment(static_cast<std::uint64_t>(n));
    buffer.append(chunk, static_cast<std::size_t>(n));

    std::size_t start = 0;
    for (std::size_t eol = buffer.find('\n', start);
         eol != std::string::npos; eol = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, eol - start);
      start = eol + 1;
      if (line.size() > kMaxWireLineBytes) {
        oversized(line);
        return;
      }
      const std::size_t text_begin = line.find_first_not_of(" \t\r");
      if (line.empty() || text_begin == std::string::npos) {
        continue;
      }
      // A bare `metrics` line (no JSON) serves the Prometheus exposition,
      // so `echo metrics | nc host port` scrapes without quoting JSON.
      const std::size_t text_end = line.find_last_not_of(" \t\r");
      if (line.compare(text_begin, text_end - text_begin + 1, "metrics") ==
          0) {
        flush_pending();
        send_line(server->MetricsText());
        continue;
      }
      WireCommand command;
      ServeRequest request;
      std::string error;
      if (!ParseWireRequest(line, &command, &request, &error)) {
        flush_pending();
        send_line(FormatWireError(request.id, error) + "\n");
        continue;
      }
      if (command == WireCommand::kStats) {
        flush_pending();
        send_line(server->StatsJson() + "\n");
        continue;
      }
      if (command == WireCommand::kListModels) {
        flush_pending();
        send_line(server->ListModelsJson() + "\n");
        continue;
      }
      if (command == WireCommand::kMetrics) {
        flush_pending();
        // Multi-line response; the exposition's trailing "# EOF" line is
        // the framing sentinel clients read to.
        send_line(server->MetricsText());
        continue;
      }
      if (command == WireCommand::kTrace) {
        flush_pending();
        send_line(obs::TraceRecorder::Global().TracesJson() + "\n");
        continue;
      }
      if (command == WireCommand::kBudget) {
        flush_pending();
        send_line(server->BudgetJson() + "\n");
        continue;
      }
      if (command == WireCommand::kPublish) {
        flush_pending();
        try {
          send_line(server->PublishFromFile(request.model, request.path) +
                    "\n");
        } catch (const ServeError& e) {
          // Coded refusal (budget_exhausted): the client can tell "the
          // cap is spent" from "bad path" without parsing prose.
          send_line(FormatWireError(request.id, e.code(), e.what()) + "\n");
        } catch (const std::exception& e) {
          send_line(FormatWireError(request.id, e.what()) + "\n");
        }
        continue;
      }
      if (command == WireCommand::kDrain) {
        flush_pending();
        server->BeginDrain();
        send_line("{\"draining\": true}\n");
        continue;
      }
      if (command == WireCommand::kQuit) {
        flush_pending();
        return;
      }
      request.trace = obs::TraceRecorder::Global().MaybeStart(
          request.id, obs::kTransportJson);
      try {
        const std::int64_t id = request.id;
        auto trace = request.trace;
        pending.push_back(
            {id, server->QueryAsync(std::move(request)), std::move(trace)});
      } catch (const ServeError& e) {
        // Admission rejection (overloaded / draining): coded, fail-fast —
        // the client learns to back off instead of hanging.
        flush_pending();
        send_line(FormatWireError(request.id, e.code(), e.what()) + "\n");
      } catch (const std::exception& e) {
        flush_pending();
        send_line(FormatWireError(request.id, e.what()) + "\n");
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxWireLineBytes) {
      oversized(buffer);
      return;
    }
    if (!flush_pending()) break;  // socket died mid-response; stop reading
  }
  // Accepted queries still in flight resolve before the thread exits —
  // their client is gone, but the batcher contract (every future resolves)
  // and the per-model counters stay truthful.
  flush_pending();
}

/// Reads exactly `want` bytes. False on EOF, a dead socket, or an expired
/// SO_RCVTIMEO (a stalled client mustn't pin the thread — same policy as
/// the JSON loop).
bool RecvAll(int fd, char* dst, std::size_t want) {
  std::size_t got = 0;
  while (got < want) {
    const ssize_t n = ::recv(fd, dst + got, want - got, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Per-connection pool of frame payload buffers. Zero-copy pins
/// (ServeRequest::frame_pin) keep a buffer's use_count above 1 for as long
/// as any in-flight query views it; Take() reuses only buffers whose every
/// pin has been released, so a recycled buffer can never be overwritten
/// under a pending batch. Bounded: a pipelining client cycles through at
/// most kPoolSize resident buffers before new frames allocate afresh.
class FramePool {
 public:
  std::shared_ptr<std::vector<char>> Take(std::size_t size) {
    for (auto& buffer : pool_) {
      if (buffer.use_count() == 1) {
        buffer->resize(size);
        return buffer;
      }
    }
    auto buffer = std::make_shared<std::vector<char>>(size);
    if (pool_.size() < kPoolSize) pool_.push_back(buffer);
    return buffer;
  }

 private:
  static constexpr std::size_t kPoolSize = 8;
  std::vector<std::shared_ptr<std::vector<char>>> pool_;
};

/// Serves one binary-framed connection (serve/frame.h). Mirrors the JSON
/// loop's discipline — pipelined QueryAsync, responses flushed in request
/// order before any admin/error frame and whenever the client has nothing
/// more buffered — but the request path is zero-copy: each frame payload
/// lands in a pooled buffer, the parsed request's feature view points into
/// it, and the buffer stays pinned until the query's batch resolves.
void ServeBinaryConnection(InferenceServer* server, int fd) {
  const TransportMetrics& tm = TransportCounters(obs::kTransportBinary);
  tm.connections->Increment();
  auto send_frame = [&](const std::string& data) -> bool {
    const bool ok = SendAll(fd, data);
    if (ok) tm.bytes_out->Increment(data.size());
    return ok;
  };

  // Hello handshake: validate the client's magic+version, answer with the
  // negotiated version (min of the two — a newer client speaks our dialect,
  // an older server never has to).
  char hello[kFrameHelloBytes];
  if (!RecvAll(fd, hello, sizeof(hello))) return;
  tm.bytes_in->Increment(sizeof(hello));
  std::uint16_t client_version = 0;
  std::string error;
  if (!ParseHello(hello, sizeof(hello), &client_version, &error)) {
    send_frame(EncodeErrorFrame(
        0, WireErrorCode(ServeErrorCode::kMalformedFrame), error));
    return;
  }
  const std::uint16_t version = std::min(client_version, kFrameVersion);
  if (!send_frame(EncodeHello(version))) return;

  struct InFlight {
    std::int64_t id;
    std::future<ServeResponse> future;
    std::shared_ptr<obs::RequestTrace> trace;
  };
  std::deque<InFlight> pending;

  auto flush_pending = [&]() -> bool {
    bool alive = true;
    while (!pending.empty()) {
      try {
        const ServeResponse response = pending.front().future.get();
        if (alive) alive = send_frame(EncodeResponseFrame(response));
      } catch (const ServeError& e) {
        if (alive) {
          alive = send_frame(EncodeErrorFrame(pending.front().id,
                                              WireErrorCode(e.code()),
                                              e.what()));
        }
      } catch (const std::exception& e) {
        if (alive) {
          alive = send_frame(
              EncodeErrorFrame(pending.front().id, 0, e.what()));
        }
      }
      obs::TraceRecorder::Global().Finish(pending.front().trace);
      pending.pop_front();
    }
    return alive;
  };

  FramePool pool;
  const std::uint32_t malformed =
      WireErrorCode(ServeErrorCode::kMalformedFrame);
  for (;;) {
    // Before blocking on the next header, flush accepted work if the
    // client has nothing more buffered — a pipelining client that is now
    // waiting for answers must get them, while a mid-burst client keeps
    // coalescing into the current batch window.
    if (!pending.empty()) {
      char probe;
      const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
      if (n == 0) break;  // EOF
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (!flush_pending()) break;
        } else if (errno != EINTR) {
          break;
        }
      }
    }

    char header[kFrameHeaderBytes];
    if (!RecvAll(fd, header, sizeof(header))) break;
    tm.bytes_in->Increment(sizeof(header));
    FrameType type;
    std::uint32_t payload_len = 0;
    if (!ParseFrameHeader(header, &type, &payload_len, &error)) {
      // Hostile length or unknown type: framing is lost (or the peer
      // speaks a future dialect) — report and hang up, nothing to resync.
      flush_pending();
      send_frame(EncodeErrorFrame(0, malformed, error));
      return;
    }
    const std::shared_ptr<std::vector<char>> buffer = pool.Take(payload_len);
    if (payload_len > 0) {
      if (!RecvAll(fd, buffer->data(), payload_len)) break;
      tm.bytes_in->Increment(payload_len);
    }

    if (type == FrameType::kRequest) {
      ServeRequest request;
      if (!ParseRequestPayload(buffer->data(), payload_len, &request,
                               &error)) {
        // Payload defect with framing intact: coded error (with whatever
        // id offset 0..7 yielded), keep serving — the binary analogue of a
        // malformed JSON line.
        flush_pending();
        send_frame(EncodeErrorFrame(request.id, malformed, error));
        continue;
      }
      // Pin the frame buffer for the request's lifetime: the feature view
      // aliases it, and the batcher may not run the GEMM until long after
      // the next frame overwrites... nothing — Take() skips pinned
      // buffers, so the gather always reads the bytes this frame carried.
      request.frame_pin =
          std::shared_ptr<const void>(buffer, buffer->data());
      request.trace = obs::TraceRecorder::Global().MaybeStart(
          request.id, obs::kTransportBinary);
      const std::int64_t id = request.id;
      auto trace = request.trace;
      try {
        pending.push_back(
            {id, server->QueryAsync(std::move(request)), std::move(trace)});
      } catch (const ServeError& e) {
        flush_pending();
        send_frame(EncodeErrorFrame(id, WireErrorCode(e.code()), e.what()));
      } catch (const std::exception& e) {
        flush_pending();
        send_frame(EncodeErrorFrame(id, 0, e.what()));
      }
      continue;
    }
    if (type == FrameType::kAdmin) {
      AdminVerb verb;
      std::string model, path;
      if (!ParseAdminPayload(buffer->data(), payload_len, &verb, &model,
                             &path, &error)) {
        flush_pending();
        send_frame(EncodeErrorFrame(0, malformed, error));
        continue;
      }
      flush_pending();
      switch (verb) {
        case AdminVerb::kStats:
          send_frame(EncodeAdminReplyFrame(server->StatsJson()));
          break;
        case AdminVerb::kListModels:
          send_frame(EncodeAdminReplyFrame(server->ListModelsJson()));
          break;
        case AdminVerb::kMetrics:
          // Reply payload is the Prometheus text exposition, byte-for-byte
          // the JSON transport's answer (one exposition, two framings).
          send_frame(EncodeAdminReplyFrame(server->MetricsText()));
          break;
        case AdminVerb::kTrace:
          send_frame(EncodeAdminReplyFrame(
              obs::TraceRecorder::Global().TracesJson()));
          break;
        case AdminVerb::kPublish:
          try {
            send_frame(EncodeAdminReplyFrame(
                server->PublishFromFile(model, path)));
          } catch (const ServeError& e) {
            // Coded refusal — budget_exhausted crosses the binary
            // transport as its fixed integer, like every other code.
            send_frame(
                EncodeErrorFrame(0, WireErrorCode(e.code()), e.what()));
          } catch (const std::exception& e) {
            send_frame(EncodeErrorFrame(0, 0, e.what()));
          }
          break;
        case AdminVerb::kBudget:
          send_frame(EncodeAdminReplyFrame(server->BudgetJson()));
          break;
        case AdminVerb::kDrain:
          server->BeginDrain();
          send_frame(EncodeAdminReplyFrame("{\"draining\": true}"));
          break;
        case AdminVerb::kQuit:
          return;
      }
      continue;
    }
    // A server-to-client frame type arriving at the server is a protocol
    // violation, not a recoverable payload defect — hang up.
    flush_pending();
    send_frame(EncodeErrorFrame(
        0, malformed,
        "unexpected frame type (clients send requests and "
        "admin frames only)"));
    return;
  }
  flush_pending();
}

/// Transport dispatch: peek the first byte without consuming it. A binary
/// client's hello starts with kFramePreamble (0xC0), which no JSON line
/// can; everything else flows to the newline-JSON loop untouched. The
/// connection loops never close `fd`: the handler thread's wrapper in
/// RunTcpServer does, once they return.
void ServeConnection(InferenceServer* server, int fd) {
  unsigned char first = 0;
  for (;;) {
    const ssize_t n =
        ::recv(fd, reinterpret_cast<char*>(&first), 1, MSG_PEEK);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // EOF, dead socket, or SO_RCVTIMEO before any byte
    break;
  }
  if (first == kFramePreamble) {
    ServeBinaryConnection(server, fd);
  } else {
    ServeJsonConnection(server, fd);
  }
}

}  // namespace

int RunTcpServer(InferenceServer* server, int port,
                 const std::atomic<bool>* shutdown,
                 std::atomic<int>* bound_port) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) SocketError("cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd);
    SocketError("cannot bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(listen_fd, 128) != 0) {
    ::close(listen_fd);
    SocketError("cannot listen");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int actual_port = ntohs(addr.sin_port);

  // stderr, with the rest of the operational logging: stdout must stay
  // machine-clean for callers like bench_serve whose stdout is parsed
  // (the bench embeds two TCP servers and emits one JSON line).
  std::cerr << "serving on 127.0.0.1:" << actual_port << " (models="
            << server->router().NameList() << ", "
            << server->session().num_nodes() << " nodes, "
            << server->session().num_classes() << " classes, threads="
            << server->options().threads << " max_batch="
            << server->options().max_batch << " max_wait_us="
            << server->options().max_wait_us
            << ", transports=json+binary, " << obs::BuildSummary() << ")"
            << std::endl;
  if (bound_port != nullptr) {
    bound_port->store(actual_port, std::memory_order_release);
  }

  // Per-connection read/write timeouts: a client that stalls (stops
  // sending, or stops reading its responses) is disconnected after
  // io_timeout_ms instead of pinning its connection thread forever.
  const int io_timeout_ms = server->options().io_timeout_ms;
  timeval io_timeout{};
  io_timeout.tv_sec = io_timeout_ms / 1000;
  io_timeout.tv_usec = (io_timeout_ms % 1000) * 1000;

  // Connection threads are detached: a long-running server must reclaim
  // each thread's stack when its client disconnects, not accumulate
  // joinable handles until shutdown. A socket stays in `live` until its
  // handler thread closes it, so shutdown never touches a recycled fd.
  struct LiveConnections {
    std::mutex mu;
    std::condition_variable empty;
    std::set<int> fds;
  };
  auto live = std::make_shared<LiveConnections>();
  int backoff_ms = 1;
  for (;;) {
    if (shutdown != nullptr && shutdown->load(std::memory_order_acquire)) {
      break;
    }
    // A short tick: an in-process stop (a test fixture, an embedded bench)
    // is noticed within 5 ms, for 200 cheap wake-ups a second while idle.
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/5);
    if (ready <= 0) continue;  // timeout (recheck shutdown) or EINTR
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      // Transient accept failures must never kill a serving process.
      // A client that vanished mid-handshake or an interrupting signal
      // costs nothing — try again immediately. Resource exhaustion
      // (fd table full, kernel memory) backs off with doubling sleeps:
      // retrying EMFILE in a tight loop is a busy-wait that starves the
      // very connections whose close would free the descriptors.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        GCON_LOG(WARNING) << "serve: accept failed ("
                          << std::strerror(errno) << "); backing off "
                          << backoff_ms << "ms";
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2, 1000);
        continue;
      }
      GCON_LOG(ERROR) << "serve: accept failed (" << std::strerror(errno)
                      << "); continuing";
      continue;
    }
    backoff_ms = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &io_timeout,
                 sizeof(io_timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &io_timeout,
                 sizeof(io_timeout));
    {
      std::lock_guard<std::mutex> lock(live->mu);
      live->fds.insert(fd);
    }
    std::thread([server, fd, live] {
      ServeConnection(server, fd);
      std::lock_guard<std::mutex> lock(live->mu);
      live->fds.erase(fd);
      ::close(fd);
      if (live->fds.empty()) live->empty.notify_all();
    }).detach();
  }
  ::close(listen_fd);
  // Clean shutdown: the detached handlers borrow `server`; wait for every
  // one to finish. SHUT_RD turns a blocked recv into EOF but leaves writes
  // working, so each handler answers what it accepted and returns at once.
  std::unique_lock<std::mutex> lock(live->mu);
  for (const int fd : live->fds) ::shutdown(fd, SHUT_RD);
  live->empty.wait(lock, [&] { return live->fds.empty(); });
  return 0;
}

}  // namespace gcon
