#pragma once
// Session: a client-side handle multiplexing many concurrent requests
// over one Server (and therefore over its read-only TechniqueResources
// and prewarmed reference oracle).
//
// A session owns nothing heavyweight — it carries a session id, default
// RequestOptions, and a monotonic counter. Its job is id discipline:
// auto-assigned ids embed the session id, so any number of sessions can
// interleave submissions on one server without id collisions, and every
// request still gets its deterministic request_seed stream. Callers that
// need replayable ids (the serving bench uses the arrival index) submit
// with an explicit id instead.

#include <atomic>
#include <cstdint>
#include <future>

#include "serve/request.hpp"
#include "serve/server.hpp"

namespace qcgen::serve {

class Session {
 public:
  /// Auto-id space per session: ids pack the session id into the top
  /// bits above a 40-bit per-session counter, so a session may
  /// auto-submit at most this many requests before submit() throws
  /// (silently overflowing would alias a neighbouring session's ids —
  /// and with them its request_seed streams).
  static constexpr std::uint64_t kAutoIdSpan = 1ull << 40;

  /// `session_id` must be unique per server and below 2^24 (auto ids
  /// pack it into the top bits above a 40-bit per-session counter).
  /// `first_auto_id` pre-seeds the auto-id counter (<= kAutoIdSpan);
  /// tests use it to reach the exhaustion boundary cheaply.
  Session(Server& server, std::uint32_t session_id,
          RequestOptions defaults = {}, std::uint64_t first_auto_id = 0);

  std::uint32_t id() const noexcept { return session_id_; }

  /// Submits with an explicit caller-stable request id (replayable:
  /// the same id always yields the same pipeline stream).
  std::future<RequestResult> submit(std::uint64_t request_id,
                                    eval::TestCase test_case,
                                    double arrival_vt);
  std::future<RequestResult> submit(std::uint64_t request_id,
                                    eval::TestCase test_case,
                                    double arrival_vt,
                                    const RequestOptions& options);

  /// Submits with the next auto id: (session_id << 40) | counter.
  std::future<RequestResult> submit(eval::TestCase test_case,
                                    double arrival_vt);

 private:
  Server& server_;
  std::uint32_t session_id_;
  RequestOptions defaults_;
  std::atomic<std::uint64_t> next_ = 0;
};

}  // namespace qcgen::serve
