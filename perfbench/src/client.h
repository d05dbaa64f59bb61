// Loopback TCP clients for `gcon_cli serve`: one speaks the binary frame
// protocol (serve/frame.h), the other newline JSON (serve/wire.h). Both
// keep their own receive buffer so a caller can pipeline requests and poll
// for answers without blocking (open-loop senders must never wait on a
// reply before their next due time).
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/frame.h"

namespace perfbench {

/// One decoded answer to a query, whichever transport carried it.
struct Answer {
  std::int64_t id = 0;
  bool refused = false;      ///< error frame / error line
  std::string error;         ///< the refusal's message
  std::vector<double> logits;
};

/// A connected loopback socket with a receive buffer.
class Connection {
 public:
  /// Connects to 127.0.0.1:`port` (TCP_NODELAY). Throws on failure.
  explicit Connection(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  /// Sends every byte; throws when the peer is gone.
  void SendAll(const std::string& bytes);
  /// Reads what is available into the buffer, first waiting up to
  /// `wait_us` (0: no wait) for the socket to become readable. Returns
  /// false when nothing new arrived; throws when the peer closed the
  /// connection.
  bool Fill(std::int64_t wait_us);

 protected:
  std::string buffer_;     ///< received, not yet consumed
  std::size_t consumed_ = 0;
  void Compact();

 private:
  int fd_ = -1;
};

/// Binary-frame client: hello on construction, then pipelined frames.
class BinaryClient : public Connection {
 public:
  explicit BinaryClient(int port);
  /// Takes one complete response/error/admin-reply frame off the buffer.
  /// Returns false when no whole frame is buffered yet.
  bool NextFrame(gcon::FrameType* type, std::string* payload);
  /// Decodes a response or error frame into an Answer (throws on a frame
  /// that is neither, or one that does not decode).
  static Answer Decode(gcon::FrameType type, const std::string& payload);
  /// Blocking: next frame within `timeout_ms` (throws on timeout).
  void ReadFrame(gcon::FrameType* type, std::string* payload,
                 int timeout_ms = 30000);
  /// Sends an admin frame and returns the reply's JSON body.
  std::string Admin(gcon::AdminVerb verb, const std::string& model = "",
                    const std::string& path = "");
};

/// Newline-JSON client.
class JsonClient : public Connection {
 public:
  explicit JsonClient(int port) : Connection(port) {}
  /// Takes one complete line (without the newline) off the buffer.
  bool NextLine(std::string* line);
  /// Blocking: next line within `timeout_ms` (throws on timeout).
  std::string ReadLine(int timeout_ms = 30000);
  /// Parses a query answer line: {"id": .., ..., "logits": [...]} or an
  /// error line {"id": .., ["code": ..,] "error": ..}. Throws on a line
  /// that is neither.
  static Answer Decode(const std::string& line);
};

/// The binary request frame for an in-graph node query.
std::string NodeQueryFrame(std::int64_t id, int node);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
