// TracingQueue: decorator adding packet-event tracing to any QueueDisc.
//
// Wrap the discipline you want to observe:
//
//   PacketTracer tracer;
//   auto q = std::make_unique<TracingQueue>(
//       std::make_unique<PelsQueue>(sched, cfg), "bottleneck", sched, tracer);
//
// Every enqueue, dequeue, and drop of the inner queue is recorded with the
// given location label. The decorator is transparent: counters, drops, and
// ordering behave exactly as the inner discipline dictates.
#pragma once

#include <memory>
#include <string>

#include "net/queue_disc.h"
#include "net/trace.h"
#include "sim/scheduler.h"

namespace pels {

class TracingQueue : public QueueDisc {
 public:
  /// `tracer` and `sched` are borrowed and must outlive the queue.
  TracingQueue(std::unique_ptr<QueueDisc> inner, std::string location, Scheduler& sched,
               PacketTracer& tracer);

  bool enqueue(Packet&& pkt) override;
  std::optional<Packet> dequeue() override;
  const Packet* peek() const override { return inner_->peek(); }
  std::size_t packet_count() const override { return inner_->packet_count(); }
  std::int64_t byte_count() const override { return inner_->byte_count(); }

  QueueDisc& inner() { return *inner_; }

 private:
  std::unique_ptr<QueueDisc> inner_;
  std::string location_;
  Scheduler& sched_;
  PacketTracer& tracer_;
};

}  // namespace pels
