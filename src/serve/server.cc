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

/// Writes the whole buffer, SIGPIPE-safe (MSG_NOSIGNAL — a vanished client
/// must surface as a return code on this thread, not a process signal).
/// Returns false when the connection is unusable: the peer went away, or
/// the send timeout (ServeOptions.io_timeout_ms via SO_SNDTIMEO) expired
/// because the client stopped reading — either way the caller closes
/// rather than letting a stalled client pin this thread. A partial write
/// (short send) is retried from where it stopped, never re-sent from the
/// start, so the byte stream can tear but never duplicate.
bool SendAll(int fd, const std::string& data) {
  if (FaultInjector::Global().ShouldFire(Fault::kTornSocket)) {
    // Chaos site: deliver half the buffer, then kill the connection — the
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

/// Bytes one recv asks for (at least): a client's whole pipelined burst
/// arrives in one syscall instead of one per header and payload.
constexpr std::size_t kReadChunk = std::size_t{64} << 10;

/// Smallest receive buffer: one read's worth of room past a partial frame.
constexpr std::size_t kMinReadBuffer = 2 * kReadChunk;

/// One receive buffer. The storage is left uninitialised, so a recv
/// commits only the pages it fills: an idle connection costs the bytes it
/// was last sent, not the buffer's full size.
struct RecvBuffer {
  std::unique_ptr<char[]> bytes;
  std::size_t size = 0;
};

/// Per-connection pool of receive buffers. A query whose feature view
/// aliases a buffer holds it (ServeRequest::frame_pin, and the connection's
/// in-flight entry until its answer is resolved), keeping its use_count
/// above 1; Take() hands out only buffers nothing else holds, so a
/// recycled buffer is never refilled under a pending batch. Bounded: a
/// pipelining client cycles through at most kPoolSize resident buffers
/// before further reads allocate afresh.
class FramePool {
 public:
  /// A buffer of at least `size` bytes that no query and no reader holds.
  /// Its contents are unspecified.
  std::shared_ptr<RecvBuffer> Take(std::size_t size) {
    for (auto& buffer : pool_) {
      if (buffer.use_count() == 1) {
        if (buffer->size < size) Allocate(buffer.get(), size);
        return buffer;
      }
    }
    auto buffer = std::make_shared<RecvBuffer>();
    Allocate(buffer.get(), size);
    if (pool_.size() < kPoolSize) pool_.push_back(buffer);
    return buffer;
  }

 private:
  static void Allocate(RecvBuffer* buffer, std::size_t size) {
    buffer->bytes.reset(new char[size]);  // default-initialised: no memset
    buffer->size = size;
  }

  static constexpr std::size_t kPoolSize = 8;
  std::vector<std::shared_ptr<RecvBuffer>> pool_;
};

/// The receive side of a connection, shared by both transports. Each recv
/// appends up to (at least) kReadChunk bytes to a FramePool buffer, and
/// the connection loop parses every complete frame or line in place from
/// data()/size() before reading again. Only a partial frame at the end of
/// a full buffer is ever copied — to the front of a fresh, unpinned one;
/// the bytes a query's feature view points at never move. No buffer is
/// taken until the first Read.
class ConnectionReader {
 public:
  enum class Status { kData, kWouldBlock, kClosed };

  ConnectionReader(int fd, obs::Counter* bytes_in)
      : fd_(fd), bytes_in_(bytes_in) {}

  /// The received, not yet consumed bytes (null before the first Read).
  const char* data() const {
    return buffer_ == nullptr ? nullptr : buffer_->bytes.get() + begin_;
  }
  std::size_t size() const { return end_ - begin_; }
  void Consume(std::size_t n) { begin_ += n; }

  /// Holds the current buffer (and keeps it out of the pool's hands) for
  /// as long as the returned pointer lives; `at` must point into data().
  std::shared_ptr<const void> Pin(const char* at) const {
    return std::shared_ptr<const void>(buffer_, at);
  }

  /// One recv appended to data(). The buffer first gets room for `want`
  /// unconsumed bytes plus a full read — so a payload larger than what is
  /// buffered is received straight into the buffer it will be parsed (and
  /// pinned) in. kWouldBlock only when !block and nothing is waiting;
  /// kClosed on EOF, a dead socket, or an expired SO_RCVTIMEO.
  Status Read(std::size_t want, bool block) {
    const std::size_t held = size();
    const std::size_t capacity = buffer_ == nullptr ? 0 : buffer_->size;
    if (capacity - end_ < kReadChunk || capacity - begin_ < want) {
      auto next =
          pool_.Take(std::max(kMinReadBuffer, 2 * std::max(want, held)));
      if (held != 0) std::memcpy(next->bytes.get(), data(), held);
      buffer_ = std::move(next);
      begin_ = 0;
      end_ = held;
    }
    const std::size_t ask = std::max(kReadChunk, want > held ? want - held : 0);
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer_->bytes.get() + end_, ask,
                               block ? 0 : MSG_DONTWAIT);
      if (n > 0) {
        end_ += static_cast<std::size_t>(n);
        bytes_in_->Increment(static_cast<std::uint64_t>(n));
        return Status::kData;
      }
      if (n < 0 && errno == EINTR) continue;  // signal — retry the read
      if (n < 0 && !block && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return Status::kWouldBlock;
      }
      return Status::kClosed;
    }
  }

 private:
  int fd_;
  obs::Counter* bytes_in_;
  FramePool pool_;
  std::shared_ptr<RecvBuffer> buffer_;
  std::size_t begin_ = 0;  ///< first unconsumed byte in *buffer_
  std::size_t end_ = 0;    ///< one past the last received byte
};

/// Reply encodings of the newline-JSON transport (serve/wire.h).
struct JsonCodec {
  static constexpr int kTransport = obs::kTransportJson;
  static void AppendAnswer(std::string* out, const ServeResponse& response) {
    out->append(FormatWireResponse(response)).push_back('\n');
  }
  /// A ServeError crosses as its coded line, so a client can tell "retry"
  /// from "bug"; anything else as prose, still carrying the client's id.
  static void AppendError(std::string* out, std::int64_t id,
                          const std::exception& e) {
    const auto* coded = dynamic_cast<const ServeError*>(&e);
    out->append(coded != nullptr ? FormatWireError(id, coded->code(), e.what())
                                 : FormatWireError(id, e.what()))
        .push_back('\n');
  }
};

/// Reply encodings of the binary frame transport (serve/frame.h).
struct BinaryCodec {
  static constexpr int kTransport = obs::kTransportBinary;
  static void AppendAnswer(std::string* out, const ServeResponse& response) {
    out->append(EncodeResponseFrame(response));
  }
  static void AppendError(std::string* out, std::int64_t id,
                          const std::exception& e) {
    const auto* coded = dynamic_cast<const ServeError*>(&e);
    out->append(EncodeErrorFrame(
        id, coded != nullptr ? WireErrorCode(coded->code()) : 0, e.what()));
  }
};

/// One connection's I/O, shared by both transports: the buffered reader,
/// the queries in flight, and one output buffer that every reply is
/// appended to — answers, error replies, admin replies — in request order.
/// The output goes out whenever the loop would block on a read (so answers
/// flush when the client has nothing more buffered, while a mid-burst
/// client keeps coalescing into the current batch window), once 64 KB of
/// replies have piled up, and when the connection ends: in one SendAll
/// when every answer is ready, otherwise with the ready ones sent before
/// waiting on a batch that is still running.
template <typename Codec>
class Connection {
 public:
  Connection(InferenceServer* server, int fd)
      : server_(server),
        fd_(fd),
        metrics_(TransportCounters(Codec::kTransport)),
        in_(fd, metrics_.bytes_in) {
    metrics_.connections->Increment();
  }

  InferenceServer* server() const { return server_; }
  ConnectionReader& in() { return in_; }
  /// Replies leave in the order they are appended: call Resolve() (or
  /// Flush()) before appending anything that must follow earlier answers.
  std::string& out() { return out_; }

  /// Pipelines one parsed query through the batcher. An admission
  /// rejection (overloaded / draining / unknown model) is answered at
  /// once, after every earlier answer.
  void Submit(ServeRequest request) {
    request.trace =
        obs::TraceRecorder::Global().MaybeStart(request.id, Codec::kTransport);
    InFlight query{request.id, {}, request.trace, request.frame_pin};
    try {
      query.future = server_->QueryAsync(std::move(request));
    } catch (const std::exception& e) {
      Resolve();
      Codec::AppendError(&out_, query.id, e);
      return;
    }
    pending_.push_back(std::move(query));
  }

  /// Waits for every query in flight and appends its answer (or coded
  /// rejection) in request order. Resolved queries release their buffers.
  void Resolve() {
    for (InFlight& query : pending_) Append(&query);
    pending_.clear();
  }

  /// Resolves every query in flight and sends the whole output. Returns
  /// false once the socket has died; later calls still resolve every
  /// accepted query (the batcher contract: every future resolves) and drop
  /// the bytes.
  bool Flush() {
    for (InFlight& query : pending_) {
      // A whole window held back for its slowest batch would return to the
      // client as one burst; what is already encoded goes out first.
      if (!out_.empty() && query.future.wait_for(std::chrono::seconds(0)) !=
                               std::future_status::ready) {
        Send();
      }
      Append(&query);
    }
    pending_.clear();
    Send();
    return alive_;
  }

  /// Reads more bytes, making room for `want` unconsumed ones. Anything
  /// owed to the client goes out first if the read would block. False
  /// when the connection is over: EOF, a dead socket, an expired
  /// SO_RCVTIMEO, or a send side that died in the flush.
  bool Read(std::size_t want) {
    if (!pending_.empty() || !out_.empty()) {
      if (out_.size() < kReadChunk) {
        const ConnectionReader::Status status = in_.Read(want, false);
        if (status != ConnectionReader::Status::kWouldBlock) {
          return status == ConnectionReader::Status::kData;
        }
      }
      if (!Flush()) return false;
    }
    return in_.Read(want, true) == ConnectionReader::Status::kData;
  }

 private:
  struct InFlight {
    std::int64_t id;
    std::future<ServeResponse> future;
    std::shared_ptr<obs::RequestTrace> trace;
    /// The receive buffer the query's feature view aliases, if any: held
    /// until the answer is resolved, so the buffer is refilled only after
    /// the future's handoff orders the batch's reads before the refill.
    std::shared_ptr<const void> pin;
  };

  void Append(InFlight* query) {
    // Shared, so the answer's state stays held while a rethrown error is
    // read: a throwing std::future::get() drops the state first, leaving
    // the batcher thread to free the exception the moment its promise
    // goes, ordered only by libstdc++'s uninstrumented exception refcount.
    const std::shared_future<ServeResponse> result = query->future.share();
    try {
      Codec::AppendAnswer(&out_, result.get());
    } catch (const std::exception& e) {
      Codec::AppendError(&out_, query->id, e);
    }
    if (query->trace != nullptr) unsent_.push_back(std::move(query->trace));
  }

  /// The output so far in one SendAll; the traces of the answers in it
  /// finish once their bytes have left.
  void Send() {
    if (!out_.empty()) {
      if (alive_) {
        alive_ = SendAll(fd_, out_);
        if (alive_) metrics_.bytes_out->Increment(out_.size());
      }
      out_.clear();
    }
    for (const auto& trace : unsent_) {
      obs::TraceRecorder::Global().Finish(trace);
    }
    unsent_.clear();
  }

  InferenceServer* server_;
  int fd_;
  const TransportMetrics& metrics_;
  ConnectionReader in_;
  std::vector<InFlight> pending_;
  std::string out_;
  /// Sampled traces of resolved answers, finished once their bytes left.
  std::vector<std::shared_ptr<obs::RequestTrace>> unsent_;
  bool alive_ = true;
};

/// Serves newline-JSON lines until the client quits, hangs up or loses
/// framing. Every complete line in the buffer is handled before the next
/// read; query lines pipeline through QueryAsync (so a burst from one
/// client coalesces into one batch) and everything else is answered in
/// request order after the queries before it.
void ServeJsonLines(Connection<JsonCodec>* conn) {
  InferenceServer* server = conn->server();
  ConnectionReader& in = conn->in();
  std::string& out = conn->out();

  // A line (or partial line) past the size cap means the client lost
  // framing — report with whatever id is recoverable, then hang up; there
  // is no byte to resync on.
  auto oversized = [&](const std::string& data) {
    std::int64_t id = 0;
    RecoverWireId(data, &id);
    conn->Resolve();
    out += FormatWireError(id, "oversized request line (limit " +
                                   std::to_string(kMaxWireLineBytes) +
                                   " bytes)") +
           "\n";
  };

  for (;;) {
    if (!conn->Read(in.size() + 1)) return;
    for (;;) {
      const char* eol =
          static_cast<const char*>(std::memchr(in.data(), '\n', in.size()));
      if (eol == nullptr) break;
      const std::string line(in.data(), eol);
      in.Consume(line.size() + 1);
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
        conn->Flush();
        out += server->MetricsText();
        continue;
      }
      WireCommand command;
      ServeRequest request;
      std::string error;
      if (!ParseWireRequest(line, &command, &request, &error)) {
        conn->Resolve();
        out += FormatWireError(request.id, error) + "\n";
        continue;
      }
      if (command == WireCommand::kQuery) {
        conn->Submit(std::move(request));
        continue;
      }
      if (command == WireCommand::kQuit) return;
      // Admin verbs see (and, like the queries' answers, reach the client
      // after) every query accepted before them.
      conn->Flush();
      switch (command) {
        case WireCommand::kStats:
          out += server->StatsJson() + "\n";
          break;
        case WireCommand::kListModels:
          out += server->ListModelsJson() + "\n";
          break;
        case WireCommand::kMetrics:
          // Multi-line response; the exposition's trailing "# EOF" line is
          // the framing sentinel clients read to.
          out += server->MetricsText();
          break;
        case WireCommand::kTrace:
          out += obs::TraceRecorder::Global().TracesJson() + "\n";
          break;
        case WireCommand::kBudget:
          out += server->BudgetJson() + "\n";
          break;
        case WireCommand::kPublish:
          try {
            out += server->PublishFromFile(request.model, request.path) + "\n";
          } catch (const std::exception& e) {
            // Coded refusal (budget_exhausted): the client can tell "the
            // cap is spent" from "bad path" without parsing prose.
            JsonCodec::AppendError(&out, request.id, e);
          }
          break;
        case WireCommand::kDrain:
          server->BeginDrain();
          out += "{\"draining\": true}\n";
          break;
        case WireCommand::kQuery:
        case WireCommand::kQuit:
          break;  // handled above
      }
    }
    if (in.size() > kMaxWireLineBytes) {
      oversized(std::string(in.data(), in.size()));
      return;
    }
  }
}

/// Serves one newline-JSON connection; whatever is owed to the client when
/// the line loop ends (answers to queries accepted before EOF, quit, a
/// timeout or an oversized line) goes out before the thread returns.
void ServeJsonConnection(InferenceServer* server, int fd) {
  Connection<JsonCodec> conn(server, fd);
  ServeJsonLines(&conn);
  conn.Flush();
}

/// Handles one complete binary frame whose payload lies in the
/// connection's receive buffer. Returns false to hang up.
bool ServeFrame(Connection<BinaryCodec>* conn, FrameType type,
                const char* payload, std::uint32_t len) {
  InferenceServer* server = conn->server();
  std::string& out = conn->out();
  const std::uint32_t malformed =
      WireErrorCode(ServeErrorCode::kMalformedFrame);
  std::string error;
  if (type == FrameType::kRequest) {
    ServeRequest request;
    if (!ParseRequestPayload(payload, len, &request, &error)) {
      // Payload defect with framing intact: coded error (with whatever id
      // offset 0..7 yielded), keep serving — the binary analogue of a
      // malformed JSON line.
      conn->Resolve();
      out += EncodeErrorFrame(request.id, malformed, error);
      return true;
    }
    // Zero-copy: the feature view points into the receive buffer, which
    // the pin keeps alive and unrecycled until the query's batch has read
    // it and its answer is resolved.
    if (request.feature_view.data != nullptr) {
      request.frame_pin = conn->in().Pin(payload);
    }
    conn->Submit(std::move(request));
    return true;
  }
  if (type == FrameType::kAdmin) {
    AdminVerb verb;
    std::string model, path;
    if (!ParseAdminPayload(payload, len, &verb, &model, &path, &error)) {
      conn->Resolve();
      out += EncodeErrorFrame(0, malformed, error);
      return true;
    }
    conn->Flush();
    switch (verb) {
      case AdminVerb::kStats:
        out += EncodeAdminReplyFrame(server->StatsJson());
        break;
      case AdminVerb::kListModels:
        out += EncodeAdminReplyFrame(server->ListModelsJson());
        break;
      case AdminVerb::kMetrics:
        // Reply payload is the Prometheus text exposition, byte-for-byte
        // the JSON transport's answer (one exposition, two framings).
        out += EncodeAdminReplyFrame(server->MetricsText());
        break;
      case AdminVerb::kTrace:
        out += EncodeAdminReplyFrame(obs::TraceRecorder::Global().TracesJson());
        break;
      case AdminVerb::kPublish:
        try {
          out += EncodeAdminReplyFrame(server->PublishFromFile(model, path));
        } catch (const std::exception& e) {
          // Coded refusal — budget_exhausted crosses the binary transport
          // as its fixed integer, like every other code.
          BinaryCodec::AppendError(&out, 0, e);
        }
        break;
      case AdminVerb::kBudget:
        out += EncodeAdminReplyFrame(server->BudgetJson());
        break;
      case AdminVerb::kDrain:
        server->BeginDrain();
        out += EncodeAdminReplyFrame("{\"draining\": true}");
        break;
      case AdminVerb::kQuit:
        return false;
    }
    return true;
  }
  // A server-to-client frame type arriving at the server is a protocol
  // violation, not a recoverable payload defect — hang up.
  conn->Resolve();
  out += EncodeErrorFrame(0, malformed,
                          "unexpected frame type (clients send requests and "
                          "admin frames only)");
  return false;
}

/// Serves binary frames (serve/frame.h) until the client quits, hangs up
/// or breaks framing: the hello handshake, then every complete frame in
/// the receive buffer parsed in place before the next read. The request
/// path is zero-copy — a feature-carrying request's view points into the
/// receive buffer, which stays pinned until the query's answer resolves.
void ServeBinaryFrames(Connection<BinaryCodec>* conn) {
  ConnectionReader& in = conn->in();
  std::string& out = conn->out();
  const std::uint32_t malformed =
      WireErrorCode(ServeErrorCode::kMalformedFrame);

  // Hello handshake: validate the client's magic+version, answer with the
  // negotiated version (min of the two — a newer client speaks our dialect,
  // an older server never has to). Frames may share the hello's segment.
  while (in.size() < kFrameHelloBytes) {
    if (!conn->Read(kFrameHelloBytes)) return;
  }
  std::uint16_t client_version = 0;
  std::string error;
  if (!ParseHello(in.data(), kFrameHelloBytes, &client_version, &error)) {
    out += EncodeErrorFrame(0, malformed, error);
    return;
  }
  in.Consume(kFrameHelloBytes);
  out += EncodeHello(std::min(client_version, kFrameVersion));

  for (;;) {
    std::size_t want = kFrameHeaderBytes;
    while (in.size() >= kFrameHeaderBytes) {
      FrameType type;
      std::uint32_t payload_len = 0;
      if (!ParseFrameHeader(in.data(), &type, &payload_len, &error)) {
        // Hostile length or unknown type: framing is lost (or the peer
        // speaks a future dialect) — report and hang up, nothing to resync.
        conn->Resolve();
        out += EncodeErrorFrame(0, malformed, error);
        return;
      }
      want = kFrameHeaderBytes + payload_len;
      if (in.size() < want) break;
      const char* payload = in.data() + kFrameHeaderBytes;
      in.Consume(want);
      want = kFrameHeaderBytes;
      if (!ServeFrame(conn, type, payload, payload_len)) return;
    }
    if (!conn->Read(want)) return;
  }
}

/// Serves one binary-framed connection; answers owed when the frame loop
/// ends go out before the thread returns.
void ServeBinaryConnection(InferenceServer* server, int fd) {
  Connection<BinaryCodec> conn(server, fd);
  ServeBinaryFrames(&conn);
  conn.Flush();
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
