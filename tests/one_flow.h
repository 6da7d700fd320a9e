// One flow on its own FlowTable, driven through its SlotController handle:
// how the dynamics tests exercise a single control law.
#pragma once

#include "cc/flow_table.h"

namespace pels {

struct OneFlow {
  explicit OneFlow(CcKind kind, MkcConfig mkc = {}, CcZooConfig zoo = {},
                   GammaConfig gamma = {})
      : table(mkc, gamma, zoo), slot(table.add_flow(kind)), cc(table, slot) {}

  FlowTable table;
  FlowSlot slot;
  SlotController cc;
};

}  // namespace pels
