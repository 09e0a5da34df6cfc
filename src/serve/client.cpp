#include "cca/serve/client.hpp"

#include "cca/rt/archive.hpp"
#include "cca/testing/hooks.hpp"

namespace cca::serve {

using sidl::remote::SerializingChannel;

PortClient::PortClient(int fd, core::RetryPolicy retry)
    : retry_(retry),
      wire_(std::make_unique<rt::SocketWire>(fd, "serve-client")) {
  reader_ = std::thread([this] { readLoop(); });
}

PortClient::~PortClient() {
  close();
  if (reader_.joinable()) reader_.join();
}

void PortClient::close() { wire_->close(); }

bool PortClient::connected() const {
  std::lock_guard lk(mx_);
  return !broken_;
}

void PortClient::failAllPending(const std::string& why) {
  {
    std::lock_guard lk(mx_);
    broken_ = true;
    brokenWhy_ = why;
    for (auto& [id, p] : pending_) p.done = true;
  }
  replies_.notify(testing::SchedPoint{testing::SchedOp::ServeReply, -1, -1});
}

void PortClient::readLoop() {
  for (;;) {
    std::optional<rt::WireFrame> f;
    try {
      f = wire_->readFrame();
    } catch (const rt::CommError& e) {
      failAllPending(e.what());
      return;
    }
    if (!f) {
      failAllPending("connection closed by server");
      return;
    }
    {
      std::lock_guard lk(mx_);
      auto it = pending_.find(f->tag);
      if (it == pending_.end()) continue;  // late reply for an abandoned call
      it->second.payload = std::move(f->payload);
      it->second.done = true;
    }
    replies_.notify(
        testing::SchedPoint{testing::SchedOp::ServeReply, -1, f->tag});
  }
}

PortClient::Ticket PortClient::beginRaw(RequestKind kind,
                                        const rt::Buffer& body) {
  rt::Buffer payload;
  payload.reserve(1 + body.size());
  rt::pack<std::uint8_t>(payload, static_cast<std::uint8_t>(kind));
  const auto bytes = body.bytes();
  payload.writeBytes(bytes.data(), bytes.size());
  int callId = 0;
  {
    std::lock_guard lk(mx_);
    if (broken_)
      throw core::PortError(core::PortErrorKind::Unavailable,
                            "port client: connection broken: " + brokenWhy_);
    callId = nextCallId_++;
    pending_.emplace(callId, Pending{});
  }
  try {
    wire_->post(rt::WireFrame{-1, 0, callId, std::move(payload)});
  } catch (const rt::CommError& e) {
    {
      std::lock_guard lk(mx_);
      pending_.erase(callId);
    }
    throw core::PortError(core::PortErrorKind::Unavailable,
                          std::string("port client: send failed: ") + e.what());
  }
  return Ticket{callId};
}

rt::Buffer PortClient::await(Ticket t) {
  std::unique_lock lk(mx_);
  auto it = pending_.find(t.callId);
  if (it == pending_.end())
    throw core::PortError(core::PortErrorKind::Unavailable,
                          "port client: unknown or already-redeemed ticket");
  // `it` stays valid across the unlock: only this (single) redeemer ever
  // erases the entry.
  lk.unlock();
  replies_.await(
      testing::SchedPoint{testing::SchedOp::ServeReply, -1, t.callId}, [&] {
        std::lock_guard plk(mx_);
        return it->second.done;
      });
  lk.lock();
  if (broken_ && it->second.payload.size() == 0) {
    pending_.erase(it);
    throw core::PortError(core::PortErrorKind::Unavailable,
                          "port client: connection broken: " + brokenWhy_);
  }
  rt::Buffer payload = std::move(it->second.payload);
  pending_.erase(it);
  return payload;
}

sidl::Value PortClient::call(const std::string& method,
                             std::vector<sidl::Value>& args) {
  rt::Buffer request = SerializingChannel::marshalRequest(method, args);
  request.share();  // per-attempt copies are refcount bumps
  const std::uint64_t ordinal =
      callOrdinal_.fetch_add(1, std::memory_order_relaxed);
  const int attempts = std::max(1, retry_.maxAttempts);
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    rt::Buffer reply = await(beginRaw(RequestKind::Call, request));
    const auto status = static_cast<ReplyStatus>(rt::unpack<std::uint8_t>(reply));
    switch (status) {
      case ReplyStatus::Ok:
        return SerializingChannel::unmarshalResponse(reply, args);
      case ReplyStatus::Busy:
        if (attempt == attempts)
          throw core::PortError(core::PortErrorKind::RetriesExhausted,
                                "port server busy after " +
                                    std::to_string(attempts) + " attempts");
        testing::sleepFor(
            core::supervision_detail::backoffFor(retry_, ordinal, attempt));
        continue;
      case ReplyStatus::ShuttingDown:
        throw core::PortError(core::PortErrorKind::Unavailable,
                              "port server is shutting down");
      default:
        throw sidl::NetworkException("port server rejected request: " +
                                     std::string(to_string(status)));
    }
  }
  throw sidl::NetworkException("unreachable");  // loop always returns/throws
}

std::string PortClient::control(const std::string& command) {
  rt::Buffer body;
  rt::pack(body, command);
  rt::Buffer reply = await(beginRaw(RequestKind::Control, body));
  const auto status = static_cast<ReplyStatus>(rt::unpack<std::uint8_t>(reply));
  if (status != ReplyStatus::Control)
    throw sidl::NetworkException("control command rejected: " +
                                 std::string(to_string(status)));
  return rt::unpack<std::string>(reply);
}

namespace {

class ClientChannel final : public sidl::remote::CallChannel {
 public:
  explicit ClientChannel(PortClient& client) : client_(&client) {}
  sidl::Value call(const std::string& method,
                   std::vector<sidl::Value>& args) override {
    return client_->call(method, args);
  }

 private:
  PortClient* client_;
};

}  // namespace

std::shared_ptr<sidl::remote::CallChannel> PortClient::channel() {
  return std::make_shared<ClientChannel>(*this);
}

}  // namespace cca::serve
