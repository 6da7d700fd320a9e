// Host: an end system running protocol agents.
//
// A Host dispatches arriving packets to the Agent registered for the packet's
// flow id, and forwards outgoing packets along its routing table (hosts are
// usually single-homed: one uplink used for every destination).
#pragma once

#include <unordered_map>

#include "net/node.h"
#include "net/routing.h"

namespace pels {

/// Endpoint protocol logic (PELS source/sink, TCP source/sink, ...).
class Agent {
 public:
  virtual ~Agent() = default;

  /// Invoked when a packet addressed to this agent's flow arrives at the
  /// host where the agent is registered.
  virtual void on_packet(const Packet& pkt) = 0;
};

class Host : public Node {
 public:
  Host(NodeId id, std::string name) : Node(id, std::move(name)) {}

  /// Registers `agent` to receive packets of `flow`. One agent per flow per
  /// host; re-registering replaces. Agents are not owned.
  void register_agent(FlowId flow, Agent* agent);
  void unregister_agent(FlowId flow);

  /// Fallback agent for flows with no per-flow registration (nullptr to
  /// clear). Population-scale drivers install one shared table-backed sink
  /// here instead of a map entry per flow — the per-flow map stays empty, so
  /// receive() skips the hash lookup entirely and per-flow receiver state
  /// lives in dense columns (see cc/sink_table.h). Not owned.
  void set_default_agent(Agent* agent) { default_agent_ = agent; }
  Agent* default_agent() const { return default_agent_; }

  /// Pre-sizes the flow -> agent map for `flows` registrations, so
  /// population-scale setups (100k flows multiplexed onto one sink host) do
  /// not rehash dozens of times while registering.
  void reserve_agents(std::size_t flows) { agents_.reserve(flows); }

  /// Sends a packet toward pkt.dst via the routing table.
  /// Returns false if no route exists or the first queue dropped the packet;
  /// either way `pkt` is consumed (see QueueDisc::enqueue).
  bool send(Packet&& pkt);

  RoutingTable& routing() { return routing_; }

  void receive(Packet&& pkt) override;

  std::uint64_t packets_received() const { return received_; }
  std::uint64_t packets_undeliverable() const { return undeliverable_; }

 private:
  RoutingTable routing_;
  std::unordered_map<FlowId, Agent*> agents_;
  Agent* default_agent_ = nullptr;
  std::uint64_t received_ = 0;
  std::uint64_t undeliverable_ = 0;
};

}  // namespace pels
