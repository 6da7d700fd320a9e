#include "pels/pels_sink.h"

#include <algorithm>
#include <cassert>

namespace pels {

namespace {
// Frames older than this many frame periods behind the newest are decoded
// and closed. Must exceed the worst red-band queueing delay (seconds, by
// design — red packets wait behind the starved band), or late red chunks
// would re-open already-scored frames. Doubles as the playback deadline:
// packets later than this are treated as lost, as a real decoder would.
constexpr std::int64_t kFinalizeLagFrames = 40;
}  // namespace

PelsSink::PelsSink(Simulation& sim, Host& host, FlowId flow, NodeId src_node,
                   VideoConfig video, const RdModel& rd, std::int32_t ack_size_bytes)
    : sim_(sim),
      host_(host),
      flow_(flow),
      src_node_(src_node),
      video_(video),
      decoder_(rd),
      ack_size_bytes_(ack_size_bytes) {
  host_.register_agent(flow_, this);
}

PelsSink::~PelsSink() { host_.unregister_agent(flow_); }

void PelsSink::on_packet(const Packet& pkt) {
  if (pkt.ack) return;  // sinks only expect data

  // The sequence loops at the source; map the raw frame id to the
  // unwrapped frame nearest the newest one seen, so frame 0 of the second
  // pass does not merge into frame 0 of the first.
  std::int64_t unwrapped = -1;
  OpenFrame* frame = nullptr;  // set iff the packet belongs to an open frame
  if (pkt.frame_id >= 0) {
    unwrapped = pkt.frame_id;
    if (max_frame_seen_ >= 0) {
      const std::int64_t k = (max_frame_seen_ - pkt.frame_id +
                              video_.total_frames / 2) /
                             video_.total_frames;
      unwrapped += std::max<std::int64_t>(0, k) * video_.total_frames;
    }
    // Duplicate delivery (fault injection, misbehaving links): a uid the
    // open frame has already absorbed is acked — the cumulative ACK counters
    // are idempotent for the sender — but contributes nothing to counters,
    // delay samples, or the reception record.
    if (unwrapped > last_finalized_) {  // else: past its deadline — lost
      frame = &open_frames_[unwrapped];
      if (std::find(frame->uids.begin(), frame->uids.end(), pkt.uid) != frame->uids.end()) {
        ++duplicates_ignored_;
        send_ack(pkt);
        return;
      }
    }
  }

  const auto c = static_cast<std::size_t>(pkt.color);
  ++recv_[c];
  data_bytes_ += static_cast<std::uint64_t>(pkt.size_bytes);
  if (pkt.ecn_marked) ++recv_marked_;
  const double delay_s = to_seconds(sim_.now() - pkt.created_at);
  delays_[c].add(delay_s);
  delay_series_[c].add(sim_.now(), delay_s);

  if (frame != nullptr) {
    if (pkt.color == Color::kYellow || pkt.color == Color::kRed) {
      recv_fgs_bytes_ += static_cast<std::uint64_t>(pkt.size_bytes);
    }
    frame->uids.push_back(pkt.uid);
    FrameReception& rx = frame->rx;
    if (rx.frame_id < 0) {
      rx.frame_id = pkt.frame_id;
      rx.base_bytes_expected = video_.base_layer_bytes;
    }
    // Classify by frame position, not colour: markers (TCM) may recolour
    // packets, but a negative frame offset always means base-layer data.
    if (pkt.frame_offset < 0) {
      rx.base_bytes_received += pkt.size_bytes;
      rx.completed_at = std::max(rx.completed_at, sim_.now());
    } else {
      rx.fgs_chunks.emplace_back(pkt.frame_offset, pkt.size_bytes);
      if (pkt.color != Color::kRed)
        rx.completed_at = std::max(rx.completed_at, sim_.now());
    }
    max_frame_seen_ = std::max(max_frame_seen_, unwrapped);
    // Finalize frames that have passed their deadline.
    while (!open_frames_.empty() &&
           open_frames_.begin()->first <= max_frame_seen_ - kFinalizeLagFrames) {
      auto node = open_frames_.extract(open_frames_.begin());
      finalize_frame(node.key(), std::move(node.mapped().rx));
    }
  }
  send_ack(pkt);
}

void PelsSink::finalize_frame(std::int64_t unwrapped_id, FrameReception rx) {
  last_finalized_ = std::max(last_finalized_, unwrapped_id);
  qualities_.push_back(decoder_.decode(rx));
  const FrameQuality& q = qualities_.back();
  useful_fgs_bytes_total_ += static_cast<std::uint64_t>(q.useful_fgs_bytes);
  if (q.base_ok) ++base_ok_frames_;
  psnr_sum_db_ += q.psnr_db;
}

void PelsSink::register_metrics(MetricsRegistry& registry, const std::string& prefix) {
  struct BandProbe {
    Color color;
    const char* pkts;
  };
  static constexpr BandProbe kBands[] = {
      {Color::kGreen, ".green_pkts"},
      {Color::kYellow, ".yellow_pkts"},
      {Color::kRed, ".red_pkts"},
  };
  for (const BandProbe& b : kBands) {
    registry.add_probe(prefix + b.pkts, [this, c = b.color] {
      return static_cast<double>(packets_received(c));
    });
  }
  registry.add_probe(prefix + ".fgs_bytes",
                     [this] { return static_cast<double>(recv_fgs_bytes_); });
  registry.add_probe(prefix + ".useful_fgs_bytes",
                     [this] { return static_cast<double>(useful_fgs_bytes_total_); });
  registry.add_probe(prefix + ".frames_finalized",
                     [this] { return static_cast<double>(qualities_.size()); });
  registry.add_probe(prefix + ".base_ok_frames",
                     [this] { return static_cast<double>(base_ok_frames_); });
  registry.add_probe(prefix + ".mean_psnr_db", [this] {
    return qualities_.empty() ? 0.0 : psnr_sum_db_ / static_cast<double>(qualities_.size());
  });
  registry.add_probe(prefix + ".duplicates",
                     [this] { return static_cast<double>(duplicates_ignored_); });
}

void PelsSink::finalize_all() {
  for (auto& [id, frame] : open_frames_) finalize_frame(id, std::move(frame.rx));
  open_frames_.clear();
}

void PelsSink::send_ack(const Packet& data) {
  Packet ack;
  ack.uid = data.uid | (1ULL << 63);
  ack.flow = flow_;
  ack.seq = data.seq;
  ack.size_bytes = ack_size_bytes_;
  ack.color = Color::kAck;
  ack.src = host_.id();
  ack.dst = src_node_;
  ack.created_at = sim_.now();
  AckInfo info;
  info.echoed = data.feedback;
  info.acked_seq = data.seq;
  info.data_color = data.color;
  info.data_created_at = data.created_at;
  info.recv_green = recv_[static_cast<std::size_t>(Color::kGreen)];
  info.recv_yellow = recv_[static_cast<std::size_t>(Color::kYellow)];
  info.recv_red = recv_[static_cast<std::size_t>(Color::kRed)];
  info.recv_fgs_bytes = recv_fgs_bytes_;
  info.recv_marked = recv_marked_;
  ack.ack = std::move(info);
  host_.send(std::move(ack));
}

std::vector<FrameQuality> PelsSink::quality_for_frames(std::int64_t first,
                                                       std::int64_t last) const {
  // Valid for runs no longer than one pass of the coded sequence (frame ids
  // unique); with looping sources the latest occurrence of an id wins.
  std::map<std::int64_t, const FrameQuality*> by_id;
  for (const auto& q : qualities_) by_id[q.frame_id] = &q;
  std::vector<FrameQuality> out;
  out.reserve(static_cast<std::size_t>(std::max<std::int64_t>(0, last - first)));
  for (std::int64_t f = first; f < last; ++f) {
    const std::int64_t want = f % video_.total_frames;
    if (auto it = by_id.find(want); it != by_id.end()) {
      out.push_back(*it->second);
    } else {
      // Nothing of this frame arrived: concealment-quality placeholder.
      FrameQuality q;
      q.frame_id = want;
      q.base_ok = false;
      q.psnr_db = decoder_.decode(FrameReception{want, 1, 0, {}}).psnr_db;
      out.push_back(q);
    }
  }
  return out;
}

std::vector<FrameArrival> PelsSink::frame_arrivals() const {
  std::vector<FrameArrival> out;
  out.reserve(qualities_.size());
  std::int64_t seq = 0;
  for (const auto& q : qualities_) {
    // Use the decode order as the playback frame index: frame ids wrap when
    // the source loops, but playback is strictly sequential.
    out.push_back(FrameArrival{seq++, q.completed_at, q.base_ok});
  }
  return out;
}

double PelsSink::mean_utility() const {
  RunningStats s;
  for (const auto& q : qualities_)
    if (q.received_fgs_bytes > 0) s.add(q.utility);
  return s.mean();
}

}  // namespace pels
