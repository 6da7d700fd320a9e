// Example: streaming across multiple PELS bottlenecks (parking lot).
//
// A "long" video flow crosses two PELS-enabled routers while cross traffic
// loads each hop independently. Demonstrates the paper's §5.2 multi-router
// machinery end to end: each router stamps its feedback label only when it
// is the more congested one, the long flow binds to the governing
// bottleneck (max-min), and the FGS prefix survives two priority AQMs in
// series.
//
// Run: ./build/examples/multihop_streaming [--hop1 N] [--hop2 N] [--seconds S]
#include <iostream>

#include "analysis/stability.h"
#include "pels/scenario.h"
#include "util/cli.h"
#include "util/table.h"

using namespace pels;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int cross_hop1 = static_cast<int>(args.get_int("hop1", 1));
  const int cross_hop2 = static_cast<int>(args.get_int("hop2", 3));
  ScenarioConfig cfg = parking_lot_config(cross_hop1, cross_hop2);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
  const double seconds = args.get_double("seconds", 40.0);

  DumbbellScenario s(cfg);
  const std::int32_t router1 = cfg.pels_queue.router_id;
  const std::int32_t router2 = router1 + 1;
  const SimTime duration = from_seconds(seconds);
  s.run_until(duration);
  s.finish();

  std::cout << "Parking lot: 1 long flow + " << cross_hop1 << " cross flow(s) on hop 1 + "
            << cross_hop2 << " on hop 2, both bottlenecks 4 mb/s (PELS share 2 mb/s), " << seconds
            << " s\n";

  print_banner(std::cout, "Who governs the long flow?");
  TablePrinter gov({"router", "labels consumed by long flow", "queue FGS loss"});
  gov.add_row({"R1 (hop 1)",
               TablePrinter::fmt_int(static_cast<long long>(
                   s.source(0).feedback_consumed(router1))),
               TablePrinter::fmt(s.pels_queue(0)->current_fgs_loss(), 3)});
  gov.add_row({"R2 (hop 2)",
               TablePrinter::fmt_int(static_cast<long long>(
                   s.source(0).feedback_consumed(router2))),
               TablePrinter::fmt(s.pels_queue(1)->current_fgs_loss(), 3)});
  gov.print(std::cout);
  std::cout << "governing router (majority of consumed labels): R"
            << s.source(0).governing_router() << "\n";

  print_banner(std::cout, "Max-min allocation");
  const SimTime tail = duration / 2;
  TablePrinter rates({"flow", "rate (kb/s)", "note"});
  rates.add_row({"long (both hops)",
                 TablePrinter::fmt(s.source(0).rate_series().mean_in(tail, duration) / 1e3, 0),
                 "matches peers on the tight hop"});
  rates.add_row({"cross hop 1",
                 TablePrinter::fmt(s.source(1).rate_series().mean_in(tail, duration) / 1e3, 0),
                 "soaks the slack the long flow leaves"});
  rates.add_row({"cross hop 2",
                 TablePrinter::fmt(
                     s.source(1 + cross_hop1).rate_series().mean_in(tail, duration) / 1e3, 0),
                 "peer of the long flow"});
  rates.print(std::cout);

  const int hop2_flows = 1 + cross_hop2;
  std::cout << "\nstationary prediction on hop 2: C/N + alpha/beta = "
            << TablePrinter::fmt(mkc_stationary_rate(s.pels_queue(1)->pels_capacity_bps(),
                                                     hop2_flows, cfg.mkc.alpha_bps,
                                                     cfg.mkc.beta) / 1e3, 0)
            << " kb/s\nlong-flow FGS utility across two AQMs: "
            << TablePrinter::fmt(s.sink(0).mean_utility(), 3) << "\n";
  return 0;
}
