// Fabric generator + mixed-traffic + population-scale driver tests
// (src/exp/fabric.h).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>

#include "exp/domain_runner.h"
#include "exp/fabric.h"
#include "util/time.h"

namespace pels {
namespace {

FabricConfig parking_lot(int hops) {
  FabricConfig cfg;
  cfg.kind = FabricConfig::Kind::kParkingLot;
  cfg.hops = hops;
  cfg.core_bandwidth_bps = 4e6;
  return cfg;
}

FabricConfig fat_tree(int pods, int racks, int hosts, bool domain_per_pod = false) {
  FabricConfig cfg;
  cfg.kind = FabricConfig::Kind::kFatTree;
  cfg.pods = pods;
  cfg.racks_per_pod = racks;
  cfg.hosts_per_rack = hosts;
  cfg.domain_per_pod = domain_per_pod;
  return cfg;
}

TEST(FabricTest, ParkingLotGeometry) {
  Fabric f(parking_lot(3));
  EXPECT_EQ(f.hosts().size(), 4u);
  EXPECT_EQ(f.core_queue_count(), 3u);
  EXPECT_EQ(f.domain_count(), 1);
  // Every bottleneck meter stamps its own router id, in creation order.
  std::set<std::int32_t> ids;
  for (std::size_t i = 0; i < f.core_queue_count(); ++i) {
    ids.insert(f.core_queue(i).config().router_id);
  }
  EXPECT_EQ(ids.size(), 3u);
}

TEST(FabricTest, ParkingLotRoutesEndToEnd) {
  Fabric f(parking_lot(2));
  // A packet from H0 to the far end crosses every chain link and arrives.
  Packet pkt;
  pkt.flow = 7;
  pkt.size_bytes = 500;
  pkt.color = Color::kGreen;
  pkt.src = f.hosts().front()->id();
  pkt.dst = f.hosts().back()->id();
  ASSERT_TRUE(f.hosts().front()->send(std::move(pkt)));
  f.sim().run_until(kSecond);
  EXPECT_EQ(f.hosts().back()->packets_received(), 1u);
  EXPECT_EQ(f.core_links()[0]->packets_delivered(), 1u);
  EXPECT_EQ(f.core_links()[1]->packets_delivered(), 1u);
}

TEST(FabricTest, FatTreeGeometry) {
  Fabric f(fat_tree(2, 2, 3));
  EXPECT_EQ(f.hosts().size(), 12u);
  // Bottlenecks: one pod uplink per pod plus one rack uplink per rack.
  EXPECT_EQ(f.core_queue_count(), 2u + 4u);
  EXPECT_EQ(f.domain_count(), 1);

  // Cross-pod delivery works (host in pod 0 to host in pod 1).
  Packet pkt;
  pkt.flow = 1;
  pkt.size_bytes = 500;
  pkt.color = Color::kGreen;
  pkt.src = f.hosts().front()->id();
  pkt.dst = f.hosts().back()->id();
  ASSERT_TRUE(f.hosts().front()->send(std::move(pkt)));
  f.sim().run_until(kSecond);
  EXPECT_EQ(f.hosts().back()->packets_received(), 1u);
}

TEST(FabricTest, FatTreeDomainPerPodMapsOntoDomains) {
  Fabric f(fat_tree(3, 1, 2, /*domain_per_pod=*/true));
  EXPECT_EQ(f.domain_count(), 4);  // core + one per pod
  // Hosts land in their pod's domain (domains 1..pods), never the core's.
  for (std::size_t h = 0; h < f.hosts().size(); ++h) {
    EXPECT_GE(f.host_domain(h), 1);
    EXPECT_LE(f.host_domain(h), 3);
  }
  // The pod uplink delay is the conservative lookahead.
  EXPECT_EQ(f.topology().min_boundary_delay(), f.config().core_delay);

  // Structurally runnable under DomainRunner: cross-pod traffic crosses the
  // boundary mailboxes and still arrives.
  DomainRunner runner(f.topology());
  Packet pkt;
  pkt.flow = 1;
  pkt.size_bytes = 500;
  pkt.color = Color::kGreen;
  pkt.src = f.hosts().front()->id();
  pkt.dst = f.hosts().back()->id();
  ASSERT_TRUE(f.hosts().front()->send(std::move(pkt)));
  runner.run_until(kSecond);
  EXPECT_EQ(f.hosts().back()->packets_received(), 1u);
  EXPECT_GT(runner.stats().handoffs, 0u);
}

TEST(FabricTest, MixedTrafficIsDeterministicAndWellFormed) {
  Fabric f(parking_lot(3));
  MixedTrafficConfig cfg;
  cfg.video_flows = 20;
  cfg.mice_flows = 15;
  cfg.elephant_flows = 3;
  cfg.seed = 99;
  const auto a = gen_mixed_traffic(f, cfg);
  const auto b = gen_mixed_traffic(f, cfg);
  ASSERT_EQ(a.size(), 38u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cls, b[i].cls);
    EXPECT_EQ(a[i].src_host, b[i].src_host);
    EXPECT_EQ(a[i].dst_host, b[i].dst_host);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].total_bytes, b[i].total_bytes);
    EXPECT_NE(a[i].src_host, a[i].dst_host);
    EXPECT_GE(a[i].src_host, 0);
    EXPECT_LT(a[i].src_host, 4);
    if (i > 0) {
      EXPECT_LE(a[i - 1].start, a[i].start);
    }
    if (a[i].cls == TrafficClass::kMice) {
      EXPECT_GE(a[i].total_bytes, a[i].packet_bytes);
    } else {
      EXPECT_EQ(a[i].total_bytes, 0);
    }
  }
  // A different seed reshuffles the mix.
  MixedTrafficConfig other = cfg;
  other.seed = 100;
  const auto c = gen_mixed_traffic(f, other);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    any_diff = any_diff || c[i].src_host != a[i].src_host || c[i].start != a[i].start;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FabricTest, ManyFlowDriverRunsMixToCompletion) {
  Fabric f(parking_lot(2));
  MixedTrafficConfig mix;
  mix.video_flows = 8;
  mix.mice_flows = 6;
  mix.elephant_flows = 1;
  mix.start_window = from_seconds(0.5);
  ManyFlowDriverConfig cfg;
  ManyFlowDriver driver(f, gen_mixed_traffic(f, mix), cfg);
  f.reserve_runtime(driver.flow_count());
  driver.start();
  driver.run_until(8 * kSecond);

  EXPECT_EQ(driver.flow_count(), 15u);
  EXPECT_GT(driver.packets_sent(), 1000u);
  EXPECT_GT(driver.packets_received(), 0u);
  EXPECT_GT(driver.control_ticks(), 30u);

  // Mice complete and free their slots; video and elephants keep running.
  std::size_t mice_done = 0;
  for (std::size_t i = 0; i < driver.flow_count(); ++i) {
    if (driver.flow_done(i)) ++mice_done;
  }
  EXPECT_GT(mice_done, 0u);
  EXPECT_EQ(driver.live_flows(), driver.flow_count() - mice_done);

  // Feedback reached the population: rates moved off the initial point but
  // stayed within the controller's clamp and the driver's cap.
  bool any_rate_moved = false;
  for (std::size_t i = 0; i < driver.flow_count(); ++i) {
    if (driver.flow_done(i)) continue;
    const double r = driver.flow_rate_bps(i);
    EXPECT_GE(r, cfg.mkc.min_rate_bps);
    EXPECT_LE(r, cfg.mkc.max_rate_bps);
    any_rate_moved = any_rate_moved || r != cfg.mkc.initial_rate_bps;
  }
  EXPECT_TRUE(any_rate_moved);
}

TEST(FabricTest, ManyFlowDriverIsDeterministic) {
  const auto run = [] {
    Fabric f(parking_lot(2));
    MixedTrafficConfig mix;
    mix.video_flows = 6;
    mix.mice_flows = 4;
    ManyFlowDriver driver(f, gen_mixed_traffic(f, mix), ManyFlowDriverConfig{});
    driver.start();
    driver.run_until(4 * kSecond);
    std::vector<double> rates;
    for (std::size_t i = 0; i < driver.flow_count(); ++i) {
      rates.push_back(driver.flow_done(i) ? -1.0 : driver.flow_rate_bps(i));
    }
    return std::tuple{driver.packets_sent(), driver.packets_received(), rates};
  };
  EXPECT_EQ(run(), run());
}

TEST(FabricTest, ManyFlowDriverSlotReuseKeepsLiveFlowsCorrect) {
  // Two waves of bounded mice around one unbounded video flow: the second
  // wave must reuse the first wave's freed slots (no column growth), and
  // live_flows() must settle back to just the video flow.
  Fabric f(parking_lot(1));
  std::vector<FlowSpec> specs;
  FlowSpec video;
  video.cls = TrafficClass::kVideo;
  video.src_host = 0;
  video.dst_host = 1;
  video.rate_bps = 128e3;
  specs.push_back(video);
  for (int wave = 0; wave < 2; ++wave) {
    for (int i = 0; i < 4; ++i) {
      FlowSpec mouse;
      mouse.cls = TrafficClass::kMice;
      mouse.src_host = 0;
      mouse.dst_host = 1;
      mouse.start = wave * kSecond;
      mouse.rate_bps = 400e3;
      mouse.total_bytes = 3000;  // 3 packets, done in ~60 ms
      specs.push_back(mouse);
    }
  }
  ManyFlowDriver driver(f, std::move(specs), ManyFlowDriverConfig{});
  f.reserve_runtime(driver.flow_count());
  driver.start();
  driver.run_until(3 * kSecond);

  std::size_t done = 0;
  for (std::size_t i = 0; i < driver.flow_count(); ++i) {
    if (driver.flow_done(i)) ++done;
  }
  EXPECT_EQ(done, 8u);  // every mouse reached flow_done
  EXPECT_EQ(driver.live_flows(), 1u);
  // High-water concurrency was wave 1 (video + 4 mice); wave 2 reused the
  // freed slots instead of growing the columns.
  EXPECT_LE(driver.flow_table().capacity(), 5u);
}

TEST(FabricTest, ManyFlowDriverRunUntilRejectsMultiDomainFabrics) {
  // Multi-domain fabrics are accepted (that is the point of sharding) but
  // must be driven through a DomainRunner, not the in-place run_until.
  Fabric f(fat_tree(2, 1, 1, /*domain_per_pod=*/true));
  ManyFlowDriver driver(f, {}, ManyFlowDriverConfig{});
  driver.start();
  EXPECT_THROW(driver.run_until(kSecond), std::logic_error);
}

TEST(FabricTest, ManyFlowDriverShardsPartitionBySourceDomain) {
  Fabric f(fat_tree(2, 2, 2, /*domain_per_pod=*/true));
  MixedTrafficConfig mix;
  mix.video_flows = 10;
  mix.mice_flows = 5;
  mix.seed = 11;
  ManyFlowDriver driver(f, gen_mixed_traffic(f, mix), ManyFlowDriverConfig{});
  ASSERT_EQ(driver.shard_count(), 3u);  // core + 2 pods
  // The core domain owns no hosts, so its shard owns no flows; the pod
  // shards' tables grow to their own populations once everything activates.
  driver.start();
  DomainRunner runner(f.topology(), 1);
  runner.run_until(2 * kSecond);
  EXPECT_EQ(driver.flow_table(0).capacity(), 0u);
  EXPECT_GT(driver.flow_table(1).capacity(), 0u);
  EXPECT_GT(driver.flow_table(2).capacity(), 0u);
}

TEST(FabricTest, ManyFlowDriverShardedFatTreeByteIdenticalAcrossThreads) {
  // The tentpole pin: one driver shard per pod under DomainRunner, and the
  // end state (per-flow sends, rate/gamma bit patterns, deliveries) is
  // byte-identical whatever the thread count. Threads beyond the hardware
  // (8 on CI boxes) exercise oversubscription clamping too.
  const auto run = [](std::size_t threads) {
    Fabric f(fat_tree(2, 2, 2, /*domain_per_pod=*/true));
    MixedTrafficConfig mix;
    mix.video_flows = 12;
    mix.mice_flows = 8;
    mix.elephant_flows = 2;
    mix.seed = 7;
    ManyFlowDriverConfig cfg;
    ManyFlowDriver driver(f, gen_mixed_traffic(f, mix), cfg);
    f.reserve_runtime(driver.flow_count());
    driver.start();
    DomainRunner runner(f.topology(), threads);
    runner.run_until(4 * kSecond);
    EXPECT_GT(runner.stats().handoffs, 0u);  // cross-pod feedback flowed
    return std::tuple{driver.fingerprint(), driver.packets_sent(),
                      driver.packets_received(), driver.bytes_received()};
  };
  const auto serial = run(1);
  EXPECT_GT(std::get<1>(serial), 1000u);
  EXPECT_GT(std::get<2>(serial), 0u);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(FabricTest, ManyFlowDriverClassCountsSplitTheMix) {
  Fabric f(parking_lot(2));
  MixedTrafficConfig mix;
  mix.video_flows = 6;
  mix.mice_flows = 4;
  mix.elephant_flows = 2;
  ManyFlowDriver driver(f, gen_mixed_traffic(f, mix), ManyFlowDriverConfig{});
  f.reserve_runtime(driver.flow_count());
  driver.start();
  driver.run_until(4 * kSecond);

  const auto video = driver.class_counts(TrafficClass::kVideo);
  const auto mice = driver.class_counts(TrafficClass::kMice);
  const auto elephants = driver.class_counts(TrafficClass::kElephant);
  EXPECT_EQ(video.flows, 6u);
  EXPECT_EQ(mice.flows, 4u);
  EXPECT_EQ(elephants.flows, 2u);
  EXPECT_GT(video.packets_delivered, 0u);
  EXPECT_GT(video.bytes_delivered, video.packets_delivered);  // >1 B packets
  EXPECT_EQ(video.packets_sent + mice.packets_sent + elephants.packets_sent,
            driver.packets_sent());
  EXPECT_EQ(video.packets_delivered + mice.packets_delivered + elephants.packets_delivered,
            driver.packets_received());
  EXPECT_EQ(video.bytes_delivered + mice.bytes_delivered + elephants.bytes_delivered,
            driver.bytes_received());
}

}  // namespace
}  // namespace pels
