#include "net/host.h"

#include "net/link.h"

namespace pels {

void Host::register_agent(FlowId flow, Agent* agent) { agents_[flow] = agent; }

void Host::unregister_agent(FlowId flow) { agents_.erase(flow); }

bool Host::send(Packet&& pkt) {
  Link* link = routing_.route_to(pkt.dst);
  if (link == nullptr) {
    ++undeliverable_;
    return false;
  }
  return link->send(std::move(pkt));
}

void Host::receive(Packet&& pkt) {
  ++received_;
  // Per-flow registrations win over the default agent. The empty-map guard
  // is the population-scale fast path: a host serving 10^6 table-backed
  // sinks never touches the hash map at all.
  if (!agents_.empty()) {
    auto it = agents_.find(pkt.flow);
    if (it != agents_.end()) {
      it->second->on_packet(pkt);
      return;
    }
  }
  if (default_agent_ != nullptr) {
    default_agent_->on_packet(pkt);
    return;
  }
  ++undeliverable_;  // no agent for this flow: silently discard, as an OS would
}

}  // namespace pels
