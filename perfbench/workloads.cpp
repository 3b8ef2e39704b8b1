#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "alloc_hook.hpp"
#include "common/rng.hpp"
#include "datalink/stack.hpp"
#include "netlayer/router.hpp"
#include "sim/parallel.hpp"
#include "spans.hpp"
#include "telemetry/metrics.hpp"
#include "transport/sublayered/host.hpp"

namespace perfbench {
namespace {

namespace sl = sublayer;
using sl::Bytes;
using sl::ByteView;
using sl::Duration;
using sl::TimePoint;
using Clock = std::chrono::steady_clock;

// ---- workload constants -----------------------------------------------------

constexpr TimePoint kWarmup = TimePoint::from_ns(Duration::millis(500).ns());
constexpr TimePoint kConvergeCap = TimePoint::from_ns(Duration::seconds(5.0).ns());
constexpr Duration kConnectGap = Duration::micros(10);
constexpr std::uint16_t kPort = 80;
// A rep still running at either cap reports its unfinished flows as failed.
constexpr Duration kVirtualCap = Duration::seconds(300.0);
constexpr double kWallCapS = 120.0;
// Set-up is timed this many times before a rep's traffic and as many times
// after it (see run_rep).
constexpr int kSetupRepeats = 5;

constexpr std::size_t kTowerBytes = std::size_t{16} << 20;

constexpr std::size_t kFatFlows = 4096;
constexpr std::size_t kFatFlowBytes = std::size_t{48} << 10;
constexpr std::size_t kFatNodes = 14;  // 2 cores, 4 aggs, 8 edge routers
constexpr std::size_t kFatEdgeBase = 6;  // routers 6..13 carry the hosts
constexpr std::size_t kFatEdges = 8;
constexpr std::size_t kFatShards = 4;
// One worker runs the engine's epochs sequentially on the calling thread:
// every shard, horizon, run-ahead and cross-shard path still runs, and no
// busy vCPU of a shared host can stall the others at an epoch barrier.
// run.py pins every rep to one CPU.
constexpr std::size_t kFatThreads = 1;

/// The q-quantile of `v` by nearest rank (0 for an empty sample).
double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(k, 1) - 1];
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Runs the control plane to 500 ms virtual, then on in 10 ms steps until
/// every router has a route to every other (the fat-tree's link-state
/// floods complete shortly after 500 ms); returns that time.
template <typename RunUntil>
TimePoint converge(const sl::netlayer::Network& net, RunUntil run_until) {
  TimePoint t = kWarmup;
  run_until(t);
  while (!net.fully_converged()) {
    if (t.ns() >= kConvergeCap.ns()) {
      throw std::runtime_error("routing did not converge");
    }
    t = t + Duration::millis(10);
    run_until(t);
  }
  return t;
}

/// Virtual time of connect slot `slot` (0-based) after convergence.
TimePoint slot_time(TimePoint start, std::size_t slot) {
  return start + Duration::nanos(kConnectGap.ns() *
                                 static_cast<std::int64_t>(slot + 1));
}

sl::netlayer::RouterConfig router_config() {
  sl::netlayer::RouterConfig rc;
  // Data-plane noise and load must not flap the control plane mid-run.
  rc.neighbor.dead_interval = Duration::seconds(3600.0);
  return rc;
}

// ---- spans ------------------------------------------------------------------

/// Interned span names.  `recorder` stays null outside the traced traffic
/// phase; the wired callbacks read it on every call, so set-up and the
/// untraced run record nothing.
struct Spans {
  explicit Spans(SpanRecorder* r) {
    if (r == nullptr) return;
    traced = true;
    step = r->intern("sim.step");
    link_send = r->intern("sim.link.send");
    dl_send = r->intern("datalink.send");
    dl_rx = r->intern("datalink.rx");
    fwd = r->intern("netlayer.fwd");
    host = r->intern("transport.host");
    app = r->intern("app.on_data");
    encode = r->intern("phy.encode");
    decode = r->intern("phy.decode");
    tag = r->intern("datalink.errordetect.tag");
  }
  bool traced = false;  // names interned, layer wrappers installed
  SpanRecorder* recorder = nullptr;
  std::uint32_t step = 0, link_send = 0, dl_send = 0, dl_rx = 0, fwd = 0,
                host = 0, app = 0, encode = 0, decode = 0, tag = 0;
};

// ---- payloads and the receive-side check ------------------------------------

/// Every flow's payload: its id as 4 little-endian bytes, then a slice of
/// one seeded random pool at a seeded offset.  Generated before set-up is
/// timed; arrivals are compared against the pool in place.
class Payloads {
 public:
  Payloads(std::uint64_t seed, std::size_t flows, std::size_t bytes)
      : bytes_(bytes) {
    constexpr std::size_t kSpread = std::size_t{1} << 20;
    sl::Rng rng(seed ^ 0x9a71'0ad5'0000'0001ull);
    pool_ = rng.next_bytes(bytes + kSpread);
    offsets_.resize(flows);
    for (std::size_t& o : offsets_) o = rng.next_below(kSpread);
  }

  std::size_t flows() const { return offsets_.size(); }
  std::size_t bytes() const { return bytes_; }

  Bytes make(std::uint32_t flow) const {
    Bytes p(bytes_);
    for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(flow >> (8 * i));
    std::memcpy(p.data() + 4, pool_.data() + offsets_[flow] + 4, bytes_ - 4);
    return p;
  }

  /// True when `data` equals flow's payload at byte `pos` (pos >= 4: the
  /// id bytes are checked by identifying the flow from them).
  bool matches(std::uint32_t flow, std::size_t pos, ByteView data) const {
    return std::memcmp(data.data(), pool_.data() + offsets_[flow] + pos,
                       data.size()) == 0;
  }

 private:
  std::size_t bytes_;
  Bytes pool_;
  std::vector<std::size_t> offsets_;
};

struct FlowRecord {
  std::int64_t start_ns = 0;  // virtual time of the connect
  std::int64_t done_ns = 0;   // virtual time the last byte arrived
  std::uint64_t received = 0;
  bool corrupt = false;
  bool finished = false;
  std::atomic<bool> claimed{false};
};

/// The receive side of every flow.  A connection is matched to its flow by
/// the payload's first four bytes; each later chunk is compared in place.
/// Under the parallel engine a flow's record is written only on its server
/// host's shard, and the shared counters are atomic.
class FlowBook {
 public:
  explicit FlowBook(const Payloads& payloads)
      : payloads_(payloads),
        records_(std::make_unique<FlowRecord[]>(payloads.flows())) {}

  std::size_t flows() const { return payloads_.flows(); }
  std::size_t bytes() const { return payloads_.bytes(); }
  FlowRecord& record(std::size_t flow) { return records_[flow]; }
  const FlowRecord& record(std::size_t flow) const { return records_[flow]; }
  std::size_t finished() const {
    return finished_.load(std::memory_order_relaxed);
  }
  std::size_t stray() const { return stray_.load(std::memory_order_relaxed); }

  /// App callbacks for a connection accepted on a host scheduled by `sim`;
  /// each on_data call is one "app.on_data" span when tracing.
  sl::transport::Connection::AppCallbacks callbacks(
      const sl::sim::Simulator& sim, const Spans& spans) {
    auto rx = std::make_shared<Rx>();
    sl::transport::Connection::AppCallbacks cb;
    cb.on_data = [this, rx, &sim, &spans](Bytes data) {
      SpanGuard g(spans.recorder, spans.app);
      on_data(*rx, sim.now(), ByteView(data));
    };
    return cb;
  }

 private:
  static constexpr std::uint32_t kUnknown = 0xFFFFFFFFu;
  static constexpr std::uint32_t kStray = 0xFFFFFFFEu;
  struct Rx {
    std::uint32_t flow = kUnknown;
    std::uint8_t id[4] = {};
    std::size_t id_len = 0;
  };

  void on_data(Rx& rx, TimePoint now, ByteView data) {
    if (rx.flow == kStray) return;
    if (rx.flow == kUnknown) {
      while (rx.id_len < 4 && !data.empty()) {
        rx.id[rx.id_len++] = data.front();
        data = data.subspan(1);
      }
      if (rx.id_len < 4) return;
      const std::uint32_t id = rx.id[0] | rx.id[1] << 8 | rx.id[2] << 16 |
                               static_cast<std::uint32_t>(rx.id[3]) << 24;
      if (id >= flows() || records_[id].claimed.exchange(true)) {
        rx.flow = kStray;  // a corrupted id, or a second connection for one
        stray_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      rx.flow = id;
      records_[id].received = 4;
    }
    FlowRecord& f = records_[rx.flow];
    const std::size_t room = f.finished ? 0 : payloads_.bytes() - f.received;
    const std::size_t n = std::min(room, data.size());
    if (n < data.size()) f.corrupt = true;  // bytes past the payload's end
    if (n == 0) return;
    if (!payloads_.matches(rx.flow, f.received, data.first(n))) f.corrupt = true;
    f.received += n;
    if (f.received == payloads_.bytes()) {
      f.finished = true;
      f.done_ns = now.ns();
      finished_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const Payloads& payloads_;
  std::unique_ptr<FlowRecord[]> records_;
  std::atomic<std::size_t> finished_{0};
  std::atomic<std::size_t> stray_{0};
};

/// Fills the flow outcome of `r` over the flows that arrived intact:
/// verified bytes, FCT percentiles (nearest rank), and virtual goodput as
/// the mean over flows of payload bits / FCT (one straggler cannot swing
/// it; for the one-flow tower it is simply the transfer's goodput).
void summarize_flows(const FlowBook& book, Result& r) {
  std::vector<double> fct_ms;
  std::uint64_t fct_sum_ns = 0;
  double goodput_sum = 0;
  for (std::size_t f = 0; f < book.flows(); ++f) {
    const FlowRecord& rec = book.record(f);
    if (!rec.finished || rec.corrupt) continue;
    const std::int64_t fct = rec.done_ns - rec.start_ns;
    fct_sum_ns += static_cast<std::uint64_t>(fct);
    fct_ms.push_back(static_cast<double>(fct) * 1e-6);
    goodput_sum += static_cast<double>(book.bytes()) * 8.0 /
                   (static_cast<double>(fct) * 1e-9) / 1e6;
  }
  r.flows = book.flows();
  // A stray connection means some flow's bytes went to the wrong place.
  r.ok_flows = book.stray() == 0 ? fct_ms.size() : 0;
  r.verified_bytes = r.ok_flows * book.bytes();
  r.counts["flows_ok"] = r.ok_flows;
  r.counts["virt_fct_sum_ns"] = fct_sum_ns;
  if (fct_ms.empty()) return;
  r.fct_virt_ms_p50 = nearest_rank(fct_ms, 0.50);
  r.fct_virt_ms_p99 = nearest_rank(fct_ms, 0.99);
  r.virt_goodput_mbps = goodput_sum / static_cast<double>(fct_ms.size());
}

// ---- layer wrappers ---------------------------------------------------------

/// A line code that records a span around every encode and decode.
class TracedLineCode final : public sl::phy::LineCode {
 public:
  TracedLineCode(std::unique_ptr<sl::phy::LineCode> inner, const Spans& spans)
      : inner_(std::move(inner)), spans_(spans) {}
  std::string name() const override { return inner_->name(); }
  double symbols_per_bit() const override { return inner_->symbols_per_bit(); }
  std::size_t input_alignment_bits() const override {
    return inner_->input_alignment_bits();
  }
  bool is_identity() const override { return inner_->is_identity(); }
  sl::BitString encode(const sl::BitString& data) const override {
    SpanGuard g(spans_.recorder, spans_.encode);
    return inner_->encode(data);
  }
  std::optional<sl::BitString> decode(
      const sl::BitString& symbols) const override {
    SpanGuard g(spans_.recorder, spans_.decode);
    return inner_->decode(symbols);
  }
  void encode_append(const sl::BitString& data,
                     sl::BitString& out) const override {
    SpanGuard g(spans_.recorder, spans_.encode);
    inner_->encode_append(data, out);
  }
  bool decode_append(const sl::BitString& symbols,
                     sl::BitString& out) const override {
    SpanGuard g(spans_.recorder, spans_.decode);
    return inner_->decode_append(symbols, out);
  }

 private:
  std::unique_ptr<sl::phy::LineCode> inner_;
  const Spans& spans_;
};

/// An error detector that records a span around every tag computation
/// (both tagging on send and checking on receive go through tag_into).
class TracedDetector final : public sl::datalink::ErrorDetector {
 public:
  TracedDetector(std::unique_ptr<sl::datalink::ErrorDetector> inner,
                 const Spans& spans)
      : inner_(std::move(inner)), spans_(spans) {}
  std::string name() const override { return inner_->name(); }
  std::size_t tag_bytes() const override { return inner_->tag_bytes(); }
  void tag_into(ByteView data, Bytes& out) const override {
    SpanGuard g(spans_.recorder, spans_.tag);
    inner_->tag_into(data, out);
  }

 private:
  std::unique_ptr<sl::datalink::ErrorDetector> inner_;
  const Spans& spans_;
};

// ---- exact counts -----------------------------------------------------------

/// Registry counters the run reads, by the short name it reports them as.
constexpr const char* kRegistryCounters[][2] = {
    {"segments", "transport.rd.segments_sent"},
    {"rd_fast_retx", "transport.rd.fast_retransmits"},
    {"rd_timeout_retx", "transport.rd.timeout_retransmits"},
    {"rd_acks", "transport.rd.acks_sent"},
    {"arq_data_frames", "datalink.arq.data_frames_sent"},
    {"arq_retx", "datalink.arq.retransmissions"},
    {"dl_frames_encoded", "datalink.phy.frames_encoded"},
    {"dl_phy_failures", "datalink.phy.decode_failures"},
    {"dl_deframe_failures", "datalink.framing.deframe_failures"},
    {"dl_crc_failures", "datalink.errordetect.checksum_failures"},
    {"datagrams_forwarded", "netlayer.fwd.datagrams_forwarded"},
};

/// Engine and registry state at one instant; two of them bracket the
/// traffic phase.
struct Sample {
  std::map<std::string, std::uint64_t> counts;
  heap::Totals heap;
  double cpu_s = 0;
};

Sample take_sample(const sl::telemetry::MetricsSnapshot& metrics,
                   std::uint64_t events, const sl::sim::SchedStats& sched) {
  Sample s;
  for (const auto& [key, name] : kRegistryCounters) {
    s.counts[key] = metrics.counter(name);
  }
  s.counts["events"] = events;
  s.counts["timers_armed"] = sched.armed;
  s.counts["timers_cancelled"] = sched.cancelled;
  s.heap = heap::totals();
  s.cpu_s = cpu_seconds();
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Fills the counts and the count-derived per-layer metrics of `r` from
/// the samples bracketing the traffic phase.
void derive_counts(const Sample& before, const Sample& after,
                   std::int64_t heap_peak, Result& r) {
  for (const auto& [key, value] : after.counts) {
    r.counts[key] = value - before.counts.at(key);
  }
  const auto c = [&r](const char* key) {
    return static_cast<double>(r.counts.at(key));
  };
  const double segs = c("segments");
  r.layers["datalink.frames_per_seg"] = ratio(c("arq_data_frames"), segs);
  r.layers["datalink.arq.retx_ratio"] =
      ratio(c("arq_retx"), c("arq_data_frames"));
  r.layers["transport.rd.retx_ratio"] =
      ratio(c("rd_fast_retx") + c("rd_timeout_retx"), segs);
  r.layers["transport.acks_per_seg"] = ratio(c("rd_acks"), segs);
  r.layers["sim.events_per_seg"] = ratio(c("events"), segs);
  r.layers["sim.timers_armed_per_seg"] = ratio(c("timers_armed"), segs);
  r.layers["sim.timers_cancelled_per_seg"] =
      ratio(c("timers_cancelled"), segs);
  r.layers["common.heap_allocs_per_seg"] = ratio(
      static_cast<double>(after.heap.allocs - before.heap.allocs), segs);
  r.layers["common.heap_bytes_per_seg"] =
      ratio(static_cast<double>(after.heap.bytes - before.heap.bytes), segs);
  r.layers["transport.live_bytes_per_flow"] =
      ratio(static_cast<double>(std::max<std::int64_t>(
                heap_peak - before.heap.live, 0)),
            static_cast<double>(r.flows));
}

/// Per-layer self times from the recorded spans: ns per call of the
/// layer's spans, except the datalink tower's layers, which are ns per
/// wire frame (a frame is encoded and decoded once and tagged twice), and
/// transport, which is ns per TCP data segment.
void derive_span_layers(const SpanRecorder& rec, const Spans& sp, Result& r) {
  const auto totals = totals_by_name(rec.spans(), rec.names().size());
  for (std::size_t i = 0; i < totals.size(); ++i) {
    r.spans[rec.names()[i]] = {
        {"count", static_cast<double>(totals[i].count)},
        {"self_ns", static_cast<double>(totals[i].self_ns)},
        {"total_ns", static_cast<double>(totals[i].total_ns)}};
  }
  const auto self = [&totals](std::initializer_list<std::uint32_t> ids) {
    double ns = 0;
    for (const std::uint32_t id : ids) {
      ns += static_cast<double>(totals[id].self_ns);
    }
    return ns;
  };
  const auto per_call = [&totals, &self](std::uint32_t id) {
    return ratio(self({id}), static_cast<double>(totals[id].count));
  };
  const auto per_count = [&r](double ns, const char* key) {
    return ratio(ns, static_cast<double>(r.counts.at(key)));
  };
  r.layers["phy.self_ns_per_frame"] =
      per_count(self({sp.encode, sp.decode}), "dl_frames_encoded");
  r.layers["datalink.errordetect.self_ns_per_frame"] =
      per_count(self({sp.tag}), "dl_frames_encoded");
  r.layers["datalink.self_ns_per_frame"] =
      per_count(self({sp.dl_send, sp.dl_rx}), "dl_frames_encoded");
  r.layers["netlayer.fwd.self_ns_per_datagram"] = per_call(sp.fwd);
  r.layers["transport.self_ns_per_seg"] =
      per_count(self({sp.host}), "segments");
  r.layers["sim.self_ns_per_event"] = per_call(sp.step);
  r.layers["sim.link.self_ns_per_frame"] = per_call(sp.link_send);
}

// ---- single-simulator workloads ---------------------------------------------

/// One hop of the Fig. 2 datalink tower between two routers: a duplex wire
/// and an endpoint at each end, wired by hand (wire_tower_hop) so each call
/// into a layer can carry a span.
struct TowerHop {
  TowerHop(sl::sim::Simulator& sim, const sl::sim::LinkConfig& wire,
           sl::Rng& rng, const std::string& label,
           const sl::datalink::StackConfig& dl, const Spans& spans)
      : link(sim, wire, rng, label),
        a(sim, code(spans), detector(spans), dl),
        b(sim, code(spans), detector(spans), dl) {}

  static std::unique_ptr<sl::phy::LineCode> code(const Spans& spans) {
    auto c = sl::phy::make_nrzi();
    if (!spans.traced) return c;
    return std::make_unique<TracedLineCode>(std::move(c), spans);
  }
  static std::unique_ptr<sl::datalink::ErrorDetector> detector(
      const Spans& spans) {
    auto d = sl::datalink::make_crc32();
    if (!spans.traced) return d;
    return std::make_unique<TracedDetector>(std::move(d), spans);
  }

  sl::sim::DuplexLink link;
  sl::datalink::DatalinkEndpoint a;
  sl::datalink::DatalinkEndpoint b;
};

/// A built network on one Simulator, ready for its traffic phase.  Members
/// are declared in dependency order, so hosts go first, then the datalink
/// hops and links their routers send into, then the network and simulator.
struct MonoRun {
  MonoRun(const Options& o, const Payloads& payloads)
      : book(payloads),
        spans(o.traced ? &recorder : nullptr),
        net(sim, router_config(), o.seed) {}

  /// The span for frames router `id` takes in: transport work where a host
  /// sits, forwarding elsewhere.
  std::uint32_t rx_span(sl::netlayer::RouterId id) const {
    return has_host.at(id) ? spans.host : spans.fwd;
  }

  /// Opens a listener on every host; accepted connections feed the book.
  void listen_all() {
    for (auto& host : hosts) {
      host->listen(kPort, [this](sl::transport::Connection& c) {
        c.set_app_callbacks(book.callbacks(sim, spans));
      });
    }
  }

  /// Steps until every flow has finished or a cap trips; a traced run
  /// samples the live heap every 4096 events for its peak.
  void step_until_done() {
    const TimePoint cap = sim.now() + kVirtualCap;
    const auto wall0 = Clock::now();
    for (std::uint64_t n = 0; book.finished() < book.flows(); ++n) {
      if ((n & 4095) == 0) {
        if (sim.now() > cap || seconds_since(wall0) > kWallCapS) return;
        if (spans.traced) heap_peak = std::max(heap_peak, heap::totals().live);
      }
      SpanGuard g(spans.recorder, spans.step);
      if (!sim.step()) return;
    }
  }

  Sample sample() const {
    Sample s = take_sample(sl::telemetry::MetricsRegistry::instance().snapshot(),
                           sim.events_processed(), sim.sched_stats());
    // Frames the wires handed to the datalink: the receive-failure base.
    std::uint64_t delivered = 0;
    for (const auto& h : hops) {
      delivered += h->link.a_to_b().stats().frames_delivered +
                   h->link.b_to_a().stats().frames_delivered;
    }
    s.counts["dl_rx_frames"] = delivered;
    return s;
  }

  /// Runs the traffic phase (spans on, when traced) and fills `r`.
  void run_traffic(const Options& o, Result& r) {
    const Sample before = sample();
    heap_peak = before.heap.live;
    spans.recorder = spans.traced ? &recorder : nullptr;
    const auto t0 = Clock::now();
    step_until_done();
    r.traffic_s = seconds_since(t0);
    spans.recorder = nullptr;
    const Sample after = sample();
    summarize_flows(book, r);
    derive_counts(before, after, heap_peak, r);
    if (!spans.traced) return;
    derive_span_layers(recorder, spans, r);
    if (!o.spans_out.empty() && !recorder.write(o.spans_out)) {
      throw std::runtime_error("cannot write spans to " + o.spans_out);
    }
  }

  FlowBook book;
  SpanRecorder recorder;
  Spans spans;
  std::vector<bool> has_host;
  std::int64_t heap_peak = 0;
  sl::sim::Simulator sim;
  sl::netlayer::Network net;
  std::vector<std::unique_ptr<sl::sim::DuplexLink>> links;
  std::vector<std::unique_ptr<TowerHop>> hops;
  std::vector<std::unique_ptr<sl::transport::TcpHost>> hosts;
};

void wire_tower_hop(MonoRun& m, TowerHop& hop, sl::netlayer::RouterId ra_id,
                    sl::netlayer::RouterId rb_id) {
  const Spans& sp = m.spans;
  sl::netlayer::Router& ra = m.net.router(ra_id);
  sl::netlayer::Router& rb = m.net.router(rb_id);
  const int ia = ra.add_interface([&hop, &sp](Bytes f) {
    SpanGuard g(sp.recorder, sp.dl_send);
    hop.a.send(std::move(f));
  });
  const int ib = rb.add_interface([&hop, &sp](Bytes f) {
    SpanGuard g(sp.recorder, sp.dl_send);
    hop.b.send(std::move(f));
  });
  hop.a.set_wire_sink([&hop, &sp](Bytes f) {
    SpanGuard g(sp.recorder, sp.link_send);
    hop.link.a_to_b().send(std::move(f));
  });
  hop.b.set_wire_sink([&hop, &sp](Bytes f) {
    SpanGuard g(sp.recorder, sp.link_send);
    hop.link.b_to_a().send(std::move(f));
  });
  hop.link.a_to_b().set_receiver([&hop, &sp](Bytes f) {
    SpanGuard g(sp.recorder, sp.dl_rx);
    hop.b.on_wire_frame(std::move(f));
  });
  hop.link.b_to_a().set_receiver([&hop, &sp](Bytes f) {
    SpanGuard g(sp.recorder, sp.dl_rx);
    hop.a.on_wire_frame(std::move(f));
  });
  hop.a.set_deliver([&ra, ia, &sp, span = m.rx_span(ra_id)](Bytes f) {
    SpanGuard g(sp.recorder, span);
    ra.on_link_frame(ia, std::move(f));
  });
  hop.b.set_deliver([&rb, ib, &sp, span = m.rx_span(rb_id)](Bytes f) {
    SpanGuard g(sp.recorder, span);
    rb.on_link_frame(ib, std::move(f));
  });
}

std::unique_ptr<MonoRun> build_tower(const Options& o,
                                     const Payloads& payloads) {
  auto run = std::make_unique<MonoRun>(o, payloads);
  MonoRun& m = *run;
  for (int i = 0; i < 3; ++i) m.net.add_router();
  m.has_host = {true, false, true};  // r1 only forwards
  sl::sim::LinkConfig wire;
  wire.bandwidth_bps = 100e6;
  wire.propagation_delay = Duration::micros(200);
  wire.corrupt_rate = 0.005;
  wire.corrupt_bit_flips = 2;
  wire.loss_rate = 0.002;
  sl::datalink::StackConfig dl;
  dl.arq_engine = "selective-repeat";
  dl.arq.window = 32;
  dl.arq.rto = Duration::millis(10);
  sl::Rng rng(o.seed);
  for (sl::netlayer::RouterId i = 0; i < 2; ++i) {
    m.hops.push_back(std::make_unique<TowerHop>(
        m.sim, wire, rng, "hop" + std::to_string(i), dl, m.spans));
    wire_tower_hop(m, *m.hops.back(), i, i + 1);
  }
  m.net.start();
  const TimePoint start =
      converge(m.net, [&m](TimePoint t) { m.sim.run_until(t); });
  for (const sl::netlayer::RouterId id : {0u, 2u}) {
    m.hosts.push_back(
        std::make_unique<sl::transport::TcpHost>(m.net.router(id), 1));
  }
  m.listen_all();
  const TimePoint at = slot_time(start, 0);
  m.book.record(0).start_ns = at.ns();
  m.sim.schedule_at(at, [&m, &payloads] {
    m.hosts[0]->connect(m.hosts[1]->addr(), kPort).send(payloads.make(0));
  });
  return run;
}

// ---- the fat-tree -----------------------------------------------------------

/// The E20 fat-tree: long core uplinks, short pod links.
std::vector<sl::sim::TopoEdge> fat_tree_edges() {
  std::vector<sl::sim::TopoEdge> edges;
  const std::int64_t uplink_ns = Duration::micros(500).ns();
  const std::int64_t podlink_ns = Duration::micros(20).ns();
  for (std::uint64_t agg = 2; agg <= 5; ++agg) {
    edges.push_back({0, agg, uplink_ns});
    edges.push_back({1, agg, uplink_ns});
    const std::uint64_t e0 = kFatEdgeBase + (agg - 2) * 2;
    edges.push_back({agg, e0, podlink_ns});
    edges.push_back({agg, e0 + 1, podlink_ns});
  }
  return edges;
}

sl::sim::LinkConfig fat_link(const sl::sim::TopoEdge& e) {
  sl::sim::LinkConfig link;
  link.bandwidth_bps = 10e9;
  link.propagation_delay = Duration::nanos(e.latency_ns);
  link.queue_limit = 4096;
  return link;
}

sl::transport::HostConfig fat_host_config() {
  sl::transport::HostConfig hc;
  hc.connection.cm.keepalive_interval = Duration::seconds(2.0);
  return hc;
}

/// Flow f runs from edge f % 8 to edge (f % 8 + 3) % 8; the seed shuffles
/// which flow takes which 10 us connect slot.
std::vector<std::uint32_t> connect_order(std::uint64_t seed) {
  std::vector<std::uint32_t> order(kFatFlows);
  for (std::uint32_t f = 0; f < kFatFlows; ++f) order[f] = f;
  sl::Rng rng(seed ^ 0xc0ec'7000'0000'0002ull);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  return order;
}

/// Schedules every fat-tree connect and records its start in the book;
/// `schedule(host, at, fn)` runs fn at `at` on the client host's simulator.
template <typename Schedule>
void schedule_connects(
    const std::vector<std::unique_ptr<sl::transport::TcpHost>>& hosts,
    const std::vector<std::uint32_t>& order, TimePoint start,
    const Payloads& payloads, FlowBook& book, Schedule schedule) {
  for (std::size_t slot = 0; slot < order.size(); ++slot) {
    const std::uint32_t f = order[slot];
    const TimePoint at = slot_time(start, slot);
    book.record(f).start_ns = at.ns();
    const std::size_t src = f % kFatEdges;
    sl::transport::TcpHost* client = hosts[src].get();
    sl::transport::TcpHost* server = hosts[(src + 3) % kFatEdges].get();
    schedule(src, at, [&payloads, client, server, f] {
      client->connect(server->addr(), kPort).send(payloads.make(f));
    });
  }
}

std::unique_ptr<MonoRun> build_fattree_mono(
    const Options& o, const Payloads& payloads,
    const std::vector<std::uint32_t>& order) {
  auto run = std::make_unique<MonoRun>(o, payloads);
  MonoRun& m = *run;
  for (std::size_t i = 0; i < kFatNodes; ++i) m.net.add_router();
  m.has_host.assign(kFatNodes, false);
  for (std::size_t i = kFatEdgeBase; i < kFatNodes; ++i) m.has_host[i] = true;
  // Same link Rng derivation as Network::connect, wired by hand so each
  // router sink (Link::send) and link receiver can carry a span.
  sl::Rng rng(o.seed);
  const Spans& sp = m.spans;
  for (const sl::sim::TopoEdge& e : fat_tree_edges()) {
    const auto a = static_cast<sl::netlayer::RouterId>(e.a);
    const auto b = static_cast<sl::netlayer::RouterId>(e.b);
    m.links.push_back(std::make_unique<sl::sim::DuplexLink>(
        m.sim, fat_link(e), rng,
        "r" + std::to_string(a) + "-r" + std::to_string(b)));
    sl::sim::DuplexLink& link = *m.links.back();
    sl::netlayer::Router& ra = m.net.router(a);
    sl::netlayer::Router& rb = m.net.router(b);
    const int ia = ra.add_interface([&link, &sp](Bytes f) {
      SpanGuard g(sp.recorder, sp.link_send);
      link.a_to_b().send(std::move(f));
    });
    const int ib = rb.add_interface([&link, &sp](Bytes f) {
      SpanGuard g(sp.recorder, sp.link_send);
      link.b_to_a().send(std::move(f));
    });
    link.a_to_b().set_receiver([&rb, ib, &sp, span = m.rx_span(b)](Bytes f) {
      SpanGuard g(sp.recorder, span);
      rb.on_link_frame(ib, std::move(f));
    });
    link.b_to_a().set_receiver([&ra, ia, &sp, span = m.rx_span(a)](Bytes f) {
      SpanGuard g(sp.recorder, span);
      ra.on_link_frame(ia, std::move(f));
    });
  }
  m.net.start();
  const TimePoint start =
      converge(m.net, [&m](TimePoint t) { m.sim.run_until(t); });
  for (std::size_t i = 0; i < kFatEdges; ++i) {
    m.hosts.push_back(std::make_unique<sl::transport::TcpHost>(
        m.net.router(static_cast<sl::netlayer::RouterId>(kFatEdgeBase + i)), 1,
        fat_host_config()));
  }
  m.listen_all();
  schedule_connects(m.hosts, order, start, payloads, m.book,
                    [&m](std::size_t, TimePoint at, std::function<void()> fn) {
                      m.sim.schedule_at(at, std::move(fn));
                    });
  return run;
}

/// The fat-tree built on a 4-shard ParallelSimulator, ready for traffic.
/// Hosts are declared last: they are destroyed before the network and
/// engine they schedule on.
struct ShardedRun {
  explicit ShardedRun(const Payloads& payloads)
      : book(payloads), no_spans(nullptr), psim(config()) {}

  static sl::sim::ParallelConfig config() {
    sl::sim::ParallelConfig pc;
    pc.shards = kFatShards;
    pc.threads = kFatThreads;
    return pc;
  }

  Sample sample() {
    sl::sim::SchedStats sched;
    for (std::size_t s = 0; s < psim.shard_count(); ++s) {
      const auto& st = psim.shard(s).sched_stats();
      sched.armed += st.armed;
      sched.cancelled += st.cancelled;
    }
    Sample out =
        take_sample(psim.merged_metrics(), psim.events_processed(), sched);
    out.counts["cross_shard_frames"] = psim.cross_shard_frames();
    out.counts["epochs"] = psim.epochs();
    out.counts["runahead_shard_epochs"] = psim.runahead_shard_epochs();
    return out;
  }

  void run_traffic(const Options& o, Result& r);

  FlowBook book;
  const Spans no_spans;  // the sharded run records no spans
  TimePoint start;
  sl::sim::ParallelSimulator psim;
  std::unique_ptr<sl::netlayer::Network> net;
  std::vector<std::unique_ptr<sl::transport::TcpHost>> hosts;
};

std::unique_ptr<ShardedRun> build_fattree_sharded(
    const Options& o, const Payloads& payloads,
    const std::vector<std::uint32_t>& order) {
  auto run = std::make_unique<ShardedRun>(payloads);
  ShardedRun& s = *run;
  const auto edges = fat_tree_edges();
  s.net = std::make_unique<sl::netlayer::Network>(
      s.psim, router_config(), o.seed,
      sl::sim::ShardMap::topology_aware(kFatShards, kFatNodes, edges));
  for (std::size_t i = 0; i < kFatNodes; ++i) s.net->add_router();
  for (const sl::sim::TopoEdge& e : edges) {
    s.net->connect(static_cast<sl::netlayer::RouterId>(e.a),
                   static_cast<sl::netlayer::RouterId>(e.b), fat_link(e));
  }
  s.net->start();
  s.start = converge(*s.net, [&s](TimePoint t) { s.psim.run_until(t); });
  for (std::size_t i = 0; i < kFatEdges; ++i) {
    sl::netlayer::Router& router =
        s.net->router(static_cast<sl::netlayer::RouterId>(kFatEdgeBase + i));
    const sl::sim::ParallelSimulator::ShardScope scope(
        s.psim, s.net->shard_of(router.id()));
    s.hosts.push_back(std::make_unique<sl::transport::TcpHost>(
        router, 1, fat_host_config()));
    s.hosts.back()->listen(kPort, [&s, &router](sl::transport::Connection& c) {
      c.set_app_callbacks(s.book.callbacks(router.sim(), s.no_spans));
    });
  }
  schedule_connects(
      s.hosts, order, s.start, payloads, s.book,
      [&s](std::size_t host, TimePoint at, std::function<void()> fn) {
        s.net->sim_of(static_cast<sl::netlayer::RouterId>(kFatEdgeBase + host))
            .schedule_at(at, std::move(fn));
      });
  return run;
}

void ShardedRun::run_traffic(const Options& o, Result& r) {
  const Sample before = sample();
  std::int64_t heap_peak = before.heap.live;
  // The stop predicate runs once per epoch with every worker parked: the
  // wall time between two calls is one epoch.
  std::vector<double> epoch_ms;
  const auto wall0 = Clock::now();
  auto last = wall0;
  psim.run_until(start + kVirtualCap, [&] {
    const auto now = Clock::now();
    epoch_ms.push_back(
        std::chrono::duration<double, std::milli>(now - last).count());
    last = now;
    if (o.traced) heap_peak = std::max(heap_peak, heap::totals().live);
    return book.finished() >= book.flows() || seconds_since(wall0) > kWallCapS;
  });
  r.traffic_s = seconds_since(wall0);
  const Sample after = sample();
  summarize_flows(book, r);
  derive_counts(before, after, heap_peak, r);
  r.threads = psim.thread_count();

  const double epochs = static_cast<double>(r.counts.at("epochs"));
  r.layers["sim.parallel.epochs"] = epochs;
  r.layers["sim.parallel.events_per_epoch"] =
      ratio(static_cast<double>(r.counts.at("events")), epochs);
  r.layers["sim.parallel.cross_frames_per_seg"] =
      ratio(static_cast<double>(r.counts.at("cross_shard_frames")),
            static_cast<double>(r.counts.at("segments")));
  r.layers["sim.parallel.runahead_share"] =
      ratio(static_cast<double>(r.counts.at("runahead_shard_epochs")),
            epochs * static_cast<double>(kFatShards));
  r.layers["sim.parallel.epoch_ms_p50"] = nearest_rank(epoch_ms, 0.50);
  r.layers["sim.parallel.epoch_ms_p90"] = nearest_rank(epoch_ms, 0.90);
  r.layers["sim.parallel.busy_share"] =
      ratio(after.cpu_s - before.cpu_s,
            r.traffic_s * static_cast<double>(psim.thread_count()));
}

/// Builds the run kSetupRepeats times, timing each build, and keeps the
/// last; `median_s` gets the median build time, so one cold or preempted
/// build does not set it.  Earlier builds are torn down outside the timer.
template <typename Build>
auto timed_builds(Build build, double& median_s) {
  std::vector<double> times;
  decltype(build()) run;
  for (int i = 0; i < kSetupRepeats; ++i) {
    run.reset();
    const auto t0 = Clock::now();
    run = build();
    times.push_back(seconds_since(t0));
  }
  median_s = nearest_rank(times, 0.5);
  return run;
}

/// One rep: builds the run, carries the traffic on the last build, then
/// builds it again.  setup_s is the mean of the two groups' median build
/// times.  The groups sample the host seconds apart, so a busy instant of
/// a shared host moves setup_s by half, where it would set one group's
/// median outright.
template <typename Build>
void run_rep(const Options& o, Build build, Result& r) {
  double before_s = 0;
  double after_s = 0;
  {
    auto run = timed_builds(build, before_s);
    run->run_traffic(o, r);
  }
  timed_builds(build, after_s);
  r.setup_s = (before_s + after_s) / 2;
}

}  // namespace

Result run_workload(const Options& o) {
  Result r;
  if (o.workload == "tower_noisy") {
    const Payloads payloads(o.seed, 1, kTowerBytes);
    run_rep(o, [&] { return build_tower(o, payloads); }, r);
    r.layers["datalink.rx_fail_ratio"] = ratio(
        static_cast<double>(r.counts.at("dl_phy_failures") +
                            r.counts.at("dl_deframe_failures") +
                            r.counts.at("dl_crc_failures")),
        static_cast<double>(r.counts.at("dl_rx_frames")));
    return r;
  }
  if (o.workload == "fattree_mono" || o.workload == "fattree_sharded") {
    const Payloads payloads(o.seed, kFatFlows, kFatFlowBytes);
    const auto order = connect_order(o.seed);
    if (o.workload == "fattree_mono") {
      run_rep(o, [&] { return build_fattree_mono(o, payloads, order); }, r);
    } else {
      run_rep(o, [&] { return build_fattree_sharded(o, payloads, order); },
              r);
    }
    return r;
  }
  throw std::invalid_argument("unknown workload: " + o.workload);
}

}  // namespace perfbench
