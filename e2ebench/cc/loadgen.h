// The benchmark's load generator: ONE thread driving at most `conns`
// keep-alive HTTP/1.1 connections over loopback.
//
// Closed loop: every connection keeps exactly one request outstanding and
// issues its next one when the previous answer arrives, as callers that
// wait for replies would.
//
// Every request and body is built by the caller before RunClosed; the
// generator only frames bytes (adding an X-Bench-Id header carrying the
// request's position, which the traced run uses to pair client and handler
// spans) and records times. Times are steady-clock seconds.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

double NowS();

enum class OpKind : uint8_t { kSearch, kUpdate };

/// One distinct request: everything up to the blank line except the
/// X-Bench-Id and Content-Length headers, plus an optional body.
struct Req {
  std::string head;  // "GET /search?q=... HTTP/1.1\r\nHost: bench\r\n"
  std::string body;  // POST body, empty for GET
  OpKind kind = OpKind::kSearch;
};

Req MakeGet(const std::string& target);
Req MakePost(const std::string& target, std::string body, OpKind kind);

/// Outcome of one issued request.
struct Sent {
  uint32_t req = 0;      // index into the Req table
  double sent = 0.0;     // when the generator handed it to a connection
  double done = 0.0;     // when its response was fully read (0 if none)
  int status = 0;        // HTTP status; 0 = socket error or timeout
  bool ok() const { return status >= 200 && status < 300; }
};

/// Called on the generator thread as each response completes, with the
/// position of the request in this run and its body.
using OnResponse =
    std::function<void(size_t pos, const Sent& s, std::string_view body)>;

class LoadGen {
 public:
  LoadGen(uint16_t port, int conns) : port_(port), conns_(conns) {}

  /// Closed loop: issues seq[0], seq[1], ... in order, one outstanding per
  /// connection, until seq is used up or `seconds` have passed. Returns
  /// once every issued request is answered or `timeout_s` passed since the
  /// oldest outstanding one was sent (then the rest count as failed).
  std::vector<Sent> RunClosed(const std::vector<Req>& reqs,
                              const std::vector<uint32_t>& seq,
                              double seconds, double timeout_s,
                              const OnResponse& on_response,
                              uint64_t id_base = 0);

 private:
  uint16_t port_;
  int conns_;
};

}  // namespace e2ebench
