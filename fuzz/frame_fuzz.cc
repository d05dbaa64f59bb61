// libFuzzer harness for the binary frame codec (serve/frame.h).
//
// Build: cmake --preset fuzz && cmake --build --preset fuzz
// Run:   ./build-fuzz/frame_fuzz fuzz/corpus/frame -max_total_time=30
//
// Invariants under fuzz: no parser crashes, hangs, or trips a sanitizer
// on arbitrary bytes — hostile declared lengths, truncated frames, and
// version-skew hellos included; every rejection names its defect
// (non-empty error, the same contract wire_fuzz holds the JSON parser
// to); an accepted hello negotiates to a version the server-side ack
// round-trips; an accepted request payload re-encodes (after copying the
// zero-copy feature view into the owning vector) to a frame whose payload
// parses back to the same request. Request payloads (the fuzzed ones and
// the re-encoded ones) are parsed at an odd address: the server parses a
// frame where it landed in its receive buffer, which after a 5-byte frame
// header is rarely 4-aligned.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "serve/frame.h"

namespace {

// Copies `size` bytes to an odd address inside `storage` and returns it
// (never null, even when size == 0): the misaligned view the server takes.
const char* MisalignedCopy(const char* data, std::size_t size,
                           std::string* storage) {
  storage->assign(size + 1, '\0');
  if (size != 0) std::memcpy(&(*storage)[1], data, size);
  return storage->data() + 1;
}

void CheckRequestPayload(const char* payload, std::size_t size) {
  gcon::ServeRequest request;
  std::string error;
  if (!gcon::ParseRequestPayload(payload, size, &request, &error)) {
    if (error.empty()) __builtin_trap();  // every rejection must say why
    return;
  }
  // Zero-copy contract: an accepted feature-carrying payload exposes a
  // view into `payload`, never an owning copy.
  if (!request.features.empty()) __builtin_trap();
  if (request.feature_view.data != nullptr) {
    const char* lo = request.feature_view.data;
    if (lo < payload || lo + 4ull * request.feature_view.count > payload + size)
      __builtin_trap();
  }
  // Round-trip: widen the view into the owning vector (the client-side
  // encoding), re-encode, and the re-parsed payload must agree.
  gcon::ServeRequest owned = request;
  owned.feature_view = {};
  for (std::uint32_t i = 0; i < request.feature_view.count; ++i) {
    owned.features.push_back(
        static_cast<double>(request.feature_view[i]));
  }
  const std::string frame = gcon::EncodeRequestFrame(owned);
  std::string storage;
  const char* reencoded =
      MisalignedCopy(frame.data() + gcon::kFrameHeaderBytes,
                     frame.size() - gcon::kFrameHeaderBytes, &storage);
  gcon::ServeRequest again;
  if (!gcon::ParseRequestPayload(reencoded,
                                 frame.size() - gcon::kFrameHeaderBytes,
                                 &again, &error)) {
    __builtin_trap();  // our own encoder emitted a rejected payload
  }
  if (again.id != request.id || again.node != request.node ||
      again.deadline_us != request.deadline_us ||
      again.model != request.model || again.has_edges != request.has_edges ||
      again.edges != request.edges ||
      again.has_features != request.has_features ||
      again.feature_view.count != request.feature_view.count) {
    __builtin_trap();
  }
  if (request.feature_view.count != 0 &&
      std::memcmp(again.feature_view.data, request.feature_view.data,
                  4ull * request.feature_view.count) != 0) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const char* bytes = reinterpret_cast<const char*>(data);
  std::string error;

  // Hello / version negotiation (covers version-skew: whatever version the
  // bytes claim, the negotiated ack must itself be a valid hello).
  std::uint16_t version = 0;
  if (gcon::ParseHello(bytes, size, &version, &error)) {
    if (version == 0) __builtin_trap();  // version 0 must parse as malformed
    const std::uint16_t negotiated = std::min(version, gcon::kFrameVersion);
    const std::string ack = gcon::EncodeHello(negotiated);
    std::uint16_t echoed = 0;
    if (!gcon::ParseHello(ack.data(), ack.size(), &echoed, &error) ||
        echoed != negotiated) {
      __builtin_trap();
    }
  } else if (error.empty()) {
    __builtin_trap();
  }

  // Frame header (hostile payload_len / unknown types).
  if (size >= gcon::kFrameHeaderBytes) {
    gcon::FrameType type{};
    std::uint32_t payload_len = 0;
    error.clear();
    if (!gcon::ParseFrameHeader(bytes, &type, &payload_len, &error)) {
      if (error.empty()) __builtin_trap();
    } else if (payload_len > gcon::kMaxFrameBytes) {
      __builtin_trap();
    }
  }

  // Payload parsers. Every one reads byte-wise, at any alignment.
  {
    std::string storage;
    CheckRequestPayload(MisalignedCopy(bytes, size, &storage), size);
  }
  {
    gcon::ServeResponse response;
    error.clear();
    if (!gcon::ParseResponsePayload(bytes, size, &response, &error) &&
        error.empty()) {
      __builtin_trap();
    }
  }
  {
    gcon::FrameError frame_error;
    error.clear();
    if (!gcon::ParseErrorPayload(bytes, size, &frame_error, &error) &&
        error.empty()) {
      __builtin_trap();
    }
  }
  {
    gcon::AdminVerb verb{};
    std::string model, path;
    error.clear();
    if (!gcon::ParseAdminPayload(bytes, size, &verb, &model, &path, &error) &&
        error.empty()) {
      __builtin_trap();
    }
  }
  return 0;
}
