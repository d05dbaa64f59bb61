#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "serve/inference_session.h"

namespace perfbench {
namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what + " (" + std::strerror(errno) + ")");
}

/// Integer value after `"key": ` in a JSON line; false when absent.
bool FindInt(const std::string& line, const char* key, std::int64_t* out) {
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* start = line.c_str() + at + needle.size();
  char* end = nullptr;
  *out = std::strtoll(start, &end, 10);
  return end != start;
}

}  // namespace

Connection::Connection(int port) {
  // Close-on-exec: a child started later (another server, a gcon_cli run)
  // must not inherit this connection and keep it open after we close it.
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) Fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    Fail("connect to 127.0.0.1:" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::SendAll(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Fail("send");
    sent += static_cast<std::size_t>(n);
  }
}

void Connection::Compact() {
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

bool Connection::Fill(std::int64_t wait_us) {
  if (wait_us > 0) {
    pollfd p{fd_, POLLIN, 0};
    const timespec timeout{static_cast<time_t>(wait_us / 1000000),
                           static_cast<long>(wait_us % 1000000) * 1000};
    const int r = ::ppoll(&p, 1, &timeout, nullptr);
    if (r < 0 && errno != EINTR) Fail("ppoll");
    if (r <= 0) return false;
  }
  Compact();
  char chunk[1 << 16];
  bool got = false;
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      got = true;
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return true;
      continue;
    }
    if (n == 0) throw std::runtime_error("server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return got;
    Fail("recv");
  }
}

BinaryClient::BinaryClient(int port) : Connection(port) {
  SendAll(gcon::EncodeHello(gcon::kFrameVersion));
  while (buffer_.size() - consumed_ < gcon::kFrameHelloBytes) {
    if (!Fill(10000000)) throw std::runtime_error("no hello from server");
  }
  std::uint16_t version = 0;
  std::string error;
  if (!gcon::ParseHello(buffer_.data() + consumed_, gcon::kFrameHelloBytes,
                        &version, &error)) {
    throw std::runtime_error("bad server hello: " + error);
  }
  consumed_ += gcon::kFrameHelloBytes;
}

bool BinaryClient::NextFrame(gcon::FrameType* type, std::string* payload) {
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < gcon::kFrameHeaderBytes) return false;
  const char* head = buffer_.data() + consumed_;
  std::uint32_t len = 0;
  std::string error;
  if (!gcon::ParseFrameHeader(head, type, &len, &error)) {
    throw std::runtime_error("bad frame header: " + error);
  }
  if (avail < gcon::kFrameHeaderBytes + len) return false;
  payload->assign(head + gcon::kFrameHeaderBytes, len);
  consumed_ += gcon::kFrameHeaderBytes + len;
  return true;
}

Answer BinaryClient::Decode(gcon::FrameType type, const std::string& payload) {
  Answer answer;
  std::string error;
  if (type == gcon::FrameType::kResponse) {
    gcon::ServeResponse response;
    if (!gcon::ParseResponsePayload(payload.data(), payload.size(), &response,
                                    &error)) {
      throw std::runtime_error("undecodable response frame: " + error);
    }
    answer.id = response.id;
    answer.logits = std::move(response.logits);
    return answer;
  }
  if (type == gcon::FrameType::kError) {
    gcon::FrameError frame;
    if (!gcon::ParseErrorPayload(payload.data(), payload.size(), &frame,
                                 &error)) {
      throw std::runtime_error("undecodable error frame: " + error);
    }
    answer.id = frame.id;
    answer.refused = true;
    answer.error = frame.message;
    return answer;
  }
  throw std::runtime_error("unexpected frame type " +
                           std::to_string(static_cast<int>(type)));
}

void BinaryClient::ReadFrame(gcon::FrameType* type, std::string* payload,
                             int timeout_ms) {
  while (!NextFrame(type, payload)) {
    if (!Fill(std::int64_t{1000} * timeout_ms)) {
      throw std::runtime_error("timed out waiting for a frame");
    }
  }
}

std::string BinaryClient::Admin(gcon::AdminVerb verb, const std::string& model,
                                const std::string& path) {
  SendAll(gcon::EncodeAdminFrame(verb, model, path));
  gcon::FrameType type{};
  std::string payload;
  ReadFrame(&type, &payload);
  if (type == gcon::FrameType::kAdminReply) return payload;
  if (type == gcon::FrameType::kError) {
    throw std::runtime_error("admin verb refused: " +
                             Decode(type, payload).error);
  }
  throw std::runtime_error("unexpected reply to an admin frame");
}

bool JsonClient::NextLine(std::string* line) {
  const std::size_t eol = buffer_.find('\n', consumed_);
  if (eol == std::string::npos) return false;
  line->assign(buffer_, consumed_, eol - consumed_);
  consumed_ = eol + 1;
  return true;
}

std::string JsonClient::ReadLine(int timeout_ms) {
  std::string line;
  while (!NextLine(&line)) {
    if (!Fill(std::int64_t{1000} * timeout_ms)) {
      throw std::runtime_error("timed out waiting for a response line");
    }
  }
  return line;
}

Answer JsonClient::Decode(const std::string& line) {
  Answer answer;
  if (!FindInt(line, "id", &answer.id)) {
    throw std::runtime_error("response line without an id: " +
                             line.substr(0, 200));
  }
  const std::size_t err = line.find("\"error\": ");
  if (err != std::string::npos) {
    answer.refused = true;
    answer.error = line.substr(err);
    return answer;
  }
  const std::string key = "\"logits\": [";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) {
    throw std::runtime_error("response line without logits: " +
                             line.substr(0, 200));
  }
  const char* cursor = line.c_str() + at + key.size();
  while (*cursor != ']') {
    char* end = nullptr;
    const double v = std::strtod(cursor, &end);
    if (end == cursor) {
      throw std::runtime_error("bad logit in: " + line.substr(0, 200));
    }
    answer.logits.push_back(v);
    cursor = end;
    while (*cursor == ',' || *cursor == ' ') ++cursor;
  }
  return answer;
}

std::string NodeQueryFrame(std::int64_t id, int node) {
  gcon::ServeRequest request;
  request.id = id;
  request.node = node;
  return gcon::EncodeRequestFrame(request);
}

}  // namespace perfbench
