#pragma once
// cca::serve::PortClient — the remote side of a PortServer connection.
//
// A PortClient owns one framed socket connection to a server's front door
// (rt::SocketWire framing, see include/cca/rt/wire.hpp) and a reader thread
// that matches response frames to pending calls by tag (the per-client call
// id).  Because the server replies out of order — a fast call overtakes a
// slow one — the client supports *pipelining*: beginRaw() posts a request
// and returns a ticket immediately; await() blocks until that ticket's
// response frame lands.  The drill uses this to hold tens of thousands of
// calls in flight from a handful of client processes.
//
// Busy replies (admission control shedding load) are retried here, on the
// client, with core::RetryPolicy's deterministic backoff — exactly the
// load-shedding contract DESIGN.md §8 describes.  Exhausted retries throw
// core::PortError{RetriesExhausted}; a server shutting down throws
// core::PortError{Unavailable}.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cca/core/supervision.hpp"
#include "cca/fiber/park.hpp"
#include "cca/rt/wire.hpp"
#include "cca/serve/port_server.hpp"
#include "cca/sidl/remote.hpp"

namespace cca::serve {

class PortClient {
 public:
  /// Wrap a connected socket fd (from rt::connectUnix / rt::connectTcp).
  explicit PortClient(int fd, core::RetryPolicy retry = {});
  ~PortClient();

  PortClient(const PortClient&) = delete;
  PortClient& operator=(const PortClient&) = delete;

  /// A pipelined call in flight; redeem with await().
  struct Ticket {
    int callId = -1;
  };

  /// Post one raw request payload ([u8 RequestKind][body]) without waiting.
  Ticket beginRaw(RequestKind kind, const rt::Buffer& body);

  /// Block until the ticket's response frame arrives; returns the response
  /// payload with the ReplyStatus byte still in front.  Throws
  /// core::PortError{Unavailable} if the connection died first.
  rt::Buffer await(Ticket t);

  /// Synchronous dynamic-invocation call with client-side Busy backoff.
  sidl::Value call(const std::string& method, std::vector<sidl::Value>& args);

  /// Synchronous control command ("stats", "pause", "kill a", …).
  std::string control(const std::string& command);

  /// CallChannel view so sidlc-generated RemoteProxy stubs can ride a
  /// PortClient like any other channel.
  [[nodiscard]] std::shared_ptr<sidl::remote::CallChannel> channel();

  /// True until the server closes the connection or the stream breaks.
  [[nodiscard]] bool connected() const;

  void close();

 private:
  struct Pending {
    bool done = false;
    rt::Buffer payload;
  };

  void readLoop();
  void failAllPending(const std::string& why);

  core::RetryPolicy retry_;
  std::unique_ptr<rt::SocketWire> wire_;
  std::thread reader_;

  mutable std::mutex mx_;
  fiber::EventCount replies_;  // rung by the reader per reply and on failure
  std::map<int, Pending> pending_;
  int nextCallId_ = 1;
  bool broken_ = false;
  std::string brokenWhy_;
  std::atomic<std::uint64_t> callOrdinal_{0};
};

}  // namespace cca::serve
