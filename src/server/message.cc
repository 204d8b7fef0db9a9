#include "server/message.h"

#include "obs/trace.h"
#include "sim/check.h"

namespace spiffi::server {

namespace {

// One in-flight network delivery. Lives in the environment's one-shot
// arena (not the heap): PostMessage pops a slot, the wire-delay event
// fires OnEvent, and the slot is returned to the arena before the sink
// runs — so a steady message flow reuses the same few slots with zero
// allocation. Trivially destructible by design: deliveries still on the
// wire at teardown are reclaimed wholesale with the arena.
class Delivery final : public sim::EventHandler {
 public:
  Delivery(sim::Environment* env, MessageSink* sink, const Message& message,
           std::uint64_t trace_id)
      : env_(env), sink_(sink), message_(message), trace_id_(trace_id) {}

  void OnEvent(std::uint64_t) override {
    sim::Environment* env = env_;
    MessageSink* sink = sink_;
    Message message = message_;
    std::uint64_t trace_id = trace_id_;
    // Release the slot first: the sink may post further messages, and
    // they should find this slot already free.
    env->DeleteOneShot(this);
    obs::TraceAsyncEnd(env, obs::TraceCategory::kNetwork, "wire",
                       obs::Tracer::kNetworkPid, trace_id);
    sink->OnMessage(message);
  }

 private:
  sim::Environment* env_;
  MessageSink* sink_;
  Message message_;
  std::uint64_t trace_id_;
};

}  // namespace

void PostMessage(sim::Environment* env, hw::Network* network,
                 std::int64_t wire_bytes, MessageSink* sink,
                 const Message& message) {
  SPIFFI_DCHECK(sink != nullptr);
  std::uint64_t trace_id = obs::TraceAsyncBegin(
      env, obs::TraceCategory::kNetwork, "wire", obs::Tracer::kNetworkPid,
      {{"bytes", static_cast<double>(wire_bytes)},
       {"terminal", static_cast<double>(message.terminal)},
       {"reply", message.kind == Message::Kind::kReadReply ? 1.0 : 0.0}});
  network->Send(wire_bytes,
                env->NewOneShot<Delivery>(env, sink, message, trace_id), 0);
}

}  // namespace spiffi::server
