#include "queue/tracing_queue.h"

#include <cassert>

namespace pels {

TracingQueue::TracingQueue(std::unique_ptr<QueueDisc> inner, std::string location,
                           Scheduler& sched, PacketTracer& tracer)
    : inner_(std::move(inner)), location_(std::move(location)), sched_(sched), tracer_(tracer) {
  assert(inner_ != nullptr);
  // Inner drops surface both as trace records and through this queue's own
  // counters/handler chain.
  inner_->set_drop_handler([this](const Packet& p) {
    tracer_.record(sched_.now(), TraceEvent::kDrop, location_, p);
    note_drop(p);
  });
}

bool TracingQueue::enqueue(Packet&& pkt) {
  counters().count_arrival(pkt);
  tracer_.record(sched_.now(), TraceEvent::kEnqueue, location_, pkt);
  return inner_->enqueue(std::move(pkt));
}

std::optional<Packet> TracingQueue::dequeue() {
  auto pkt = inner_->dequeue();
  if (pkt) {
    counters().count_departure(*pkt);
    tracer_.record(sched_.now(), TraceEvent::kDequeue, location_, *pkt);
  }
  return pkt;
}

}  // namespace pels
