#include "stacks.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "chaos/harness.h"
#include "chaos/invariants.h"
#include "chaos/oracle.h"
#include "common/rng.h"
#include "fluidmem/fault_engine.h"
#include "fluidmem/monitor.h"
#include "kvstore/decorators.h"
#include "kvstore/integrity.h"
#include "kvstore/local_store.h"
#include "kvstore/ramcloud.h"
#include "kvstore/resilient.h"
#include "mem/frame_pool.h"
#include "mem/uffd.h"
#include "obs/span.h"
#include "timing_store.h"
#include "vm/census.h"
#include "vm/fluid_vm.h"
#include "workloads/tenants.h"
#include "workloads/trace.h"
#include "workloads/ycsb.h"

namespace perfbench {

using namespace fluid;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Independent seeds for every model RNG and input stream of one run.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() { return SplitMix64(state_); }

 private:
  std::uint64_t state_;
};

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.NextBounded(i)]);
}

// 8-byte page stamp for (page, generation); reads compare against it.
std::uint64_t Stamp(std::uint64_t page, std::uint64_t gen) noexcept {
  std::uint64_t x = page * 0x9e3779b97f4a7c15ULL + gen * 0x165667b19e3779f9ULL;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  return x;
}

std::array<std::byte, 8> StampBytes(std::uint64_t page, std::uint64_t gen) {
  std::array<std::byte, 8> b{};
  const std::uint64_t s = Stamp(page, gen);
  std::memcpy(b.data(), &s, 8);
  return b;
}

bool StampMatches(const std::array<std::byte, 8>& got, std::uint64_t page,
                  std::uint64_t gen) {
  return got == StampBytes(page, gen);
}

void Flag(RunResult& res, std::string what) {
  ++res.failed;
  if (res.ok) {
    res.ok = false;
    res.failure = std::move(what);
  }
}

// Nearest-rank quantile of sorted samples, in us.
double QuantileUs(const std::vector<SimDuration>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return static_cast<double>(
             sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1]) /
         1000.0;
}

// Latency statistics, throughput and the replay fingerprint of the
// measured phase. Quantiles are nearest-rank over the exact samples.
void Summarize(std::vector<SimDuration> lat, SimDuration span_ns,
               RunResult& res) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  for (const SimDuration d : lat) mix(d);
  mix(res.failed);
  mix(span_ns);
  res.fingerprint = h;
  res.span_ms = static_cast<double>(span_ns) / kMillisecond;
  if (lat.empty()) return;
  std::sort(lat.begin(), lat.end());
  long double sum = 0;
  for (const SimDuration d : lat) sum += d;
  res.mean_us = static_cast<double>(sum / lat.size()) / 1000.0;
  res.p50_us = QuantileUs(lat, 0.50);
  res.p99_us = QuantileUs(lat, 0.99);
  res.p999_us = QuantileUs(lat, 0.999);
  res.vthroughput_per_ms = Ratio(static_cast<double>(lat.size()), res.span_ms);
}

// --- per-layer virtual figures from the monitor and the obs hub ------------

struct MonitorSnap {
  fm::MonitorStats m;
  fm::EngineShardStats e;
  fm::PrefetcherStats p;
  std::vector<std::uint64_t> shard_faults;
  double merged_sum_ns = 0;
};

MonitorSnap Snap(const fm::Monitor& mon) {
  MonitorSnap s;
  s.m = mon.stats();
  s.e = mon.fault_engine().TotalStats();
  s.p = mon.prefetcher().stats();
  for (std::size_t k = 0; k < mon.fault_engine().shard_count(); ++k)
    s.shard_faults.push_back(mon.fault_engine().shard_stats(k).faults);
  const LatencyHistogram merged = mon.fault_engine().MergedLatency();
  s.merged_sum_ns = merged.MeanNs() * static_cast<double>(merged.Count());
  return s;
}

constexpr std::array<obs::Stage, 10> kReportedStages = {
    obs::Stage::kKernelDelivery, obs::Stage::kQueueWait,
    obs::Stage::kDispatch,       obs::Stage::kLockWait,
    obs::Stage::kClassify,       obs::Stage::kRemoteRead,
    obs::Stage::kEviction,       obs::Stage::kWriteback,
    obs::Stage::kInstall,        obs::Stage::kWake};

constexpr std::array<obs::PipeStage, 6> kReportedPipeStages = {
    obs::PipeStage::kVictimQueue,  obs::PipeStage::kEvict,
    obs::PipeStage::kCoalesceWait, obs::PipeStage::kStoreWrite,
    obs::PipeStage::kPrefetchRead, obs::PipeStage::kPrefetchInstall};

// Fold the monitor's measured-phase deltas into `out`. `b` was taken when
// the measured phase began, right after obs.ClearSpans().
void AddMonitorLayer(const MonitorSnap& b, const fm::Monitor& mon,
                     const obs::Observability& obs, double accesses,
                     std::map<std::string, double>& out) {
  const MonitorSnap a = Snap(mon);
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double faults = d(a.m.faults, b.m.faults);
  const LatencyHistogram& e2e = obs.end_to_end();
  const double ok_faults = static_cast<double>(e2e.Count());

  out["fluidmem.faults_per_access"] = Ratio(faults, accesses);
  out["fluidmem.fault_p50_us"] = e2e.Count() ? e2e.QuantileUs(0.50) : 0.0;
  out["fluidmem.fault_p99_us"] = e2e.Count() ? e2e.QuantileUs(0.99) : 0.0;
  for (const obs::Stage s : kReportedStages)
    out["fluidmem.stage." + std::string(obs::StageName(s)) + "_us"] =
        Ratio(static_cast<double>(obs.StageTotalNs(s)), ok_faults) / 1000.0;
  for (const obs::PipeStage s : kReportedPipeStages) {
    // PipeStageName is "pipe_<stage>".
    const std::string name =
        "fluidmem.pipe." + std::string(obs::PipeStageName(s).substr(5));
    out[name + "_us"] =
        Ratio(static_cast<double>(obs.PipelineTotalNs(s)), ok_faults) / 1000.0;
    out[name + "_count"] = static_cast<double>(obs.PipelineCount(s));
  }
  out["fluidmem.steal_frac"] = Ratio(d(a.m.steals, b.m.steals), faults);
  out["fluidmem.evictions_per_fault"] =
      Ratio(d(a.m.evictions, b.m.evictions), faults);
  out["fluidmem.flush_pages_per_batch"] =
      Ratio(d(a.m.flushed_pages, b.m.flushed_pages),
            d(a.m.flush_batches, b.m.flush_batches));

  const double engine_faults = d(a.e.faults, b.e.faults);
  out["fluidmem.engine.batched_read_frac"] =
      Ratio(d(a.e.batched_reads, b.e.batched_reads), engine_faults);
  out["fluidmem.engine.coalesced_reads"] =
      d(a.e.coalesced_reads, b.e.coalesced_reads);
  out["fluidmem.engine.work_steals"] = d(a.e.work_steals, b.e.work_steals);
  out["fluidmem.engine.io_window_waits"] =
      d(a.e.io_window_waits, b.e.io_window_waits);
  out["fluidmem.engine.deferred_evictions"] =
      d(a.e.deferred_evictions, b.e.deferred_evictions);
  out["fluidmem.engine.lock_wait_us"] =
      Ratio(d(a.e.lock_wait_total, b.e.lock_wait_total), engine_faults) /
      1000.0;
  double max_shard = 0;
  for (std::size_t k = 0; k < a.shard_faults.size(); ++k)
    max_shard = std::max(max_shard, d(a.shard_faults[k], b.shard_faults[k]));
  out["fluidmem.engine.shard_skew"] = Ratio(
      max_shard, engine_faults / static_cast<double>(a.shard_faults.size()));

  const double prefetched = d(a.m.prefetched_pages, b.m.prefetched_pages);
  out["fluidmem.prefetch.pages_per_fault"] = Ratio(prefetched, faults);
  out["fluidmem.prefetch.hit_frac"] = Ratio(d(a.p.hits, b.p.hits), prefetched);
  out["fluidmem.prefetch.wasted"] = d(a.p.wasted, b.p.wasted);
  out["fluidmem.prefetch.gated_skips"] = d(a.p.gated_skips, b.p.gated_skips);

  out["fluidmem.tracker.bytes_per_page"] =
      Ratio(static_cast<double>(mon.tracker().ApproxBytes()),
            static_cast<double>(mon.tracker().Size()));

  const double hist_ns = a.merged_sum_ns - b.merged_sum_ns;
  out["obs.stage_reconcile_err"] = Ratio(
      std::abs(static_cast<double>(obs.StageTotalSumNs()) - hist_ns), hist_ns);
}

// --- pmbench -----------------------------------------------------------------

// Fig. 3's FluidMem-RAMCloud testbed: 4,096 pages of local DRAM ("1 GB"), a
// 16,384-page working set ("4 GB"), uniform 4 KB accesses at 50% reads.
constexpr std::size_t kPmDramPages = 4096;
constexpr std::size_t kPmWssPages = 16384;
constexpr std::size_t kPmAccesses = 80'000;
constexpr std::uint32_t kWriteBit = 1u << 31;

RunResult RunPmbench(std::uint64_t seed, Tracer* tr) {
  const auto t0 = Clock::now();
  RunResult res;
  SeedStream seeds(seed);

  kv::RamcloudConfig rc;
  rc.memory_cap_bytes = 20 * kPmDramPages * kPageSize;
  rc.seed = seeds.Next();
  const std::unique_ptr<kv::KvStore> store = AtBoundary(
      std::make_unique<kv::RamcloudStore>(rc), Layer::kRamcloud, tr);
  // The LRU budget plus write-list / in-flight frames, as the testbed sizes it.
  mem::FramePool pool(kPmDramPages + 8192);
  fm::MonitorConfig mc;
  mc.lru_capacity_pages = kPmDramPages;
  mc.prefetch_depth = 4;
  mc.prefetch.mode = fm::PrefetchMode::kMajority;
  mc.prefetch.accuracy_floor_pct = 40;
  mc.seed = seeds.Next();
  obs::Observability obs;  // outlives the monitor's gauges
  fm::Monitor monitor(mc, *store, pool);
  if (tr != nullptr) {
    obs.Enable();
    monitor.AttachObservability(obs);
  }
  // OS footprint scaled to ~30% of local DRAM, as the testbed does.
  const vm::OsCensus census =
      vm::MakeBootCensus(81042 / (kPmDramPages * 30 / 100));
  vm::FluidVm vm(census, kPmWssPages, monitor, pool, /*pid=*/1234,
                 /*partition=*/7, seeds.Next());
  mem::UffdRegion& region = vm.region();
  const VirtAddr base = vm.layout().app_base;
  const auto t_built = Clock::now();

  // Inputs: a page index per access, the write flag in the top bit.
  std::vector<std::uint32_t> ops(kPmAccesses);
  Rng rng(seeds.Next());
  for (std::uint32_t& op : ops) {
    op = static_cast<std::uint32_t>(rng.NextBounded(kPmWssPages));
    if (rng.NextDouble() < 0.5) op |= kWriteBit;
  }
  const auto t_gen = Clock::now();

  // Boot, then write every working-set page once.
  SimTime now = vm.BootOs(0);
  std::vector<std::uint64_t> gen(kPmWssPages, 0);
  for (std::size_t p = 0; p < kPmWssPages; ++p) {
    const VirtAddr addr = base + p * kPageSize;
    const paging::TouchResult r = vm.Touch(addr, /*is_write=*/true, now);
    if (!r.status.ok() ||
        !region.WriteBytes(addr, StampBytes(p, 0)).ok()) {
      Flag(res, "populate failed: " + r.status.ToString());
      return res;
    }
    now = r.done;
  }
  const auto t_warm = Clock::now();

  MonitorSnap before;
  if (tr != nullptr) {
    obs.ClearSpans();
    before = Snap(monitor);
    tr->Start();
  }
  std::vector<SimDuration> lat;
  lat.reserve(kPmAccesses);
  const SimTime start = now;
  std::array<std::byte, 8> buf{};
  for (std::size_t i = 0; i < kPmAccesses; ++i) {
    if (tr != nullptr) tr->SetAccess(static_cast<std::uint32_t>(i));
    const std::size_t page = ops[i] & ~kWriteBit;
    const bool write = (ops[i] & kWriteBit) != 0;
    const VirtAddr addr = base + page * kPageSize;
    paging::TouchResult r;
    {
      Tracer::Scope s(tr, Layer::kVm, Call::kTouch);
      r = vm.Touch(addr, write, now);
    }
    if (!r.status.ok()) {
      Flag(res, "access failed: " + r.status.ToString());
    } else if (write) {
      Tracer::Scope s(tr, Layer::kMem, Call::kWriteBytes);
      if (!region.WriteBytes(addr, StampBytes(page, ++gen[page])).ok())
        Flag(res, "write to a resident page failed");
    } else {
      Status st;
      {
        Tracer::Scope s(tr, Layer::kMem, Call::kReadBytes);
        st = region.ReadBytes(addr, buf);
      }
      if (!st.ok() || !StampMatches(buf, page, gen[page]))
        Flag(res, "read-back mismatch on a pmbench read");
    }
    lat.push_back(r.done > now ? r.done - now : 0);
    now = std::max(now, r.done);
  }
  res.accesses = kPmAccesses;
  if (tr != nullptr) {
    tr->Stop();
    AddMonitorLayer(before, monitor, obs, kPmAccesses, res.layer);
  }
  const auto t_meas = Clock::now();
  Summarize(std::move(lat), now - start, res);

  // Read every working-set page back once more.
  for (std::size_t p = 0; p < kPmWssPages; ++p) {
    const VirtAddr addr = base + p * kPageSize;
    const paging::TouchResult r = vm.Touch(addr, /*is_write=*/false, now);
    if (!r.status.ok() || !region.ReadBytes(addr, buf).ok() ||
        !StampMatches(buf, p, gen[p])) {
      Flag(res, "read-back sweep mismatch");
      continue;
    }
    now = r.done;
  }
  const auto t_oracle = Clock::now();
  res.gen_s = Seconds(t_built, t_gen);
  res.warmup_s = Seconds(t_gen, t_warm);
  res.setup_s = Seconds(t0, t_warm);
  res.measure_s = Seconds(t_warm, t_meas);
  res.oracle_s = Seconds(t_meas, t_oracle);
  return res;
}

// --- storm -----------------------------------------------------------------

// R regions over-committed 2:1 share one K=16 monitor with scale_monitor's
// scaled settings. Every page is populated dirty and stamped; writes and
// the background evictors are drained; then every remote page's refault is
// queued at one instant and pumped. The queued set is exactly the pages
// that did not fit, so every run serves the same number of faults.
constexpr std::size_t kStormRegions = 8;
constexpr std::size_t kStormPages = 4096;  // per region
constexpr VirtAddr kStormBase = 0x7f0000000000ULL;
constexpr VirtAddr kStormStride = 1ULL << 32;

RunResult RunStorm(std::uint64_t seed, Tracer* tr) {
  const auto t0 = Clock::now();
  RunResult res;
  SeedStream seeds(seed);
  constexpr std::size_t kTotal = kStormRegions * kStormPages;

  kv::RamcloudConfig rc;
  rc.memory_cap_bytes = 1ULL << 30;
  rc.service_lanes = 8;
  rc.seed = seeds.Next();
  const std::unique_ptr<kv::KvStore> store = AtBoundary(
      std::make_unique<kv::RamcloudStore>(rc), Layer::kRamcloud, tr);
  mem::FramePool pool(kTotal + 4096);
  fm::MonitorConfig mc;
  mc.lru_capacity_pages = kTotal / 2;
  mc.write_batch_pages = 32;
  mc.fault_shards = 16;
  mc.uffd_read_batch = 32;
  mc.io_window = 16;
  mc.seed = seeds.Next();
  obs::Observability obs;
  fm::Monitor monitor(mc, *store, pool);
  if (tr != nullptr) {
    obs.Enable();
    monitor.AttachObservability(obs);
  }
  std::vector<std::unique_ptr<mem::UffdRegion>> regions;
  std::vector<fm::RegionId> rids;
  for (std::size_t r = 0; r < kStormRegions; ++r) {
    regions.push_back(std::make_unique<mem::UffdRegion>(
        static_cast<ProcessId>(100 + r), kStormBase + r * kStormStride,
        kStormPages, pool));
    rids.push_back(monitor.RegisterRegion(*regions.back(),
                                          static_cast<PartitionId>(r + 1)));
  }
  const auto addr_of = [](std::size_t r, std::size_t p) {
    return kStormBase + r * kStormStride + p * kPageSize;
  };
  const auto t_built = Clock::now();

  // Inputs: populate order over all pages, region pump order, and each
  // region's queue order.
  Rng rng(seeds.Next());
  std::vector<std::uint32_t> populate(kTotal);
  std::iota(populate.begin(), populate.end(), 0u);
  Shuffle(populate, rng);
  std::vector<std::uint32_t> region_order(kStormRegions);
  std::iota(region_order.begin(), region_order.end(), 0u);
  Shuffle(region_order, rng);
  std::vector<std::vector<std::uint32_t>> queue_order(kStormRegions);
  for (auto& q : queue_order) {
    q.resize(kStormPages);
    std::iota(q.begin(), q.end(), 0u);
    Shuffle(q, rng);
  }
  const auto t_gen = Clock::now();

  SimTime now = kMillisecond;
  for (const std::uint32_t id : populate) {
    const std::size_t r = id / kStormPages;
    const std::size_t p = id % kStormPages;
    const VirtAddr addr = addr_of(r, p);
    if (regions[r]->Access(addr, true).kind == mem::AccessKind::kUffdFault) {
      const fm::FaultOutcome out = monitor.HandleFault(rids[r], addr, now);
      if (!out.status.ok()) {
        Flag(res, "populate fault failed: " + out.status.ToString());
        return res;
      }
      now = out.wake_at;
      (void)regions[r]->Access(addr, true);  // zero page -> private frame
    }
    if (!regions[r]->WriteBytes(addr, StampBytes(id, 0)).ok()) {
      Flag(res, "populate write failed");
      return res;
    }
  }
  // Settle before the storm: with evictions still deferred the resident
  // set, and so the fault set, would depend on the shard count.
  now = monitor.DrainWrites(now);
  const auto t_warm = Clock::now();

  MonitorSnap before;
  if (tr != nullptr) {
    obs.ClearSpans();
    before = Snap(monitor);
    tr->Start();
  }
  const SimTime storm_start = now;
  const std::uint64_t engine_before =
      monitor.fault_engine().TotalStats().faults;
  std::vector<std::uint32_t> queued(kStormRegions, 0);
  std::uint32_t queued_total = 0;
  for (const std::uint32_t r : region_order) {
    for (const std::uint32_t p : queue_order[r]) {
      if (tr != nullptr) tr->SetAccess(queued_total);
      mem::AccessResult a;
      {
        Tracer::Scope s(tr, Layer::kMem, Call::kAccess);
        a = regions[r]->Access(addr_of(r, p), false);
      }
      if (a.kind != mem::AccessKind::kUffdFault) continue;
      Tracer::Scope s(tr, Layer::kMem, Call::kQueueEvent);
      regions[r]->QueueEvent(a.event, storm_start);
      ++queued[r];
      ++queued_total;
    }
  }
  std::vector<SimDuration> lat;
  lat.reserve(queued_total);
  SimTime last_wake = storm_start;
  std::uint64_t served = 0;
  for (const std::uint32_t r : region_order) {
    std::vector<fm::FaultOutcome> outs;
    {
      Tracer::Scope s(tr, Layer::kFluidmem, Call::kPumpQueuedFaults, queued[r]);
      outs = monitor.fault_engine().PumpQueuedFaults(rids[r], storm_start);
    }
    for (const fm::FaultOutcome& o : outs) {
      if (!o.status.ok()) {
        Flag(res, "storm fault failed: " + o.status.ToString());
        continue;
      }
      ++served;
      lat.push_back(o.wake_at > storm_start ? o.wake_at - storm_start : 0);
      last_wake = std::max(last_wake, o.wake_at);
    }
  }
  const std::uint64_t engine_served =
      monitor.fault_engine().TotalStats().faults - engine_before;
  res.accesses = queued_total;
  if (served != queued_total || engine_served != queued_total)
    Flag(res, "unequal storm work: queued " + std::to_string(queued_total) +
                  ", served " + std::to_string(served) + ", engine saw " +
                  std::to_string(engine_served));
  if (tr != nullptr) {
    tr->Stop();
    AddMonitorLayer(before, monitor, obs, queued_total, res.layer);
  }
  const auto t_meas = Clock::now();
  Summarize(std::move(lat), last_wake - storm_start, res);

  // Every page, resident or not, must still hold its populate stamp.
  now = last_wake;
  std::array<std::byte, 8> buf{};
  for (std::size_t r = 0; r < kStormRegions; ++r) {
    for (std::size_t p = 0; p < kStormPages; ++p) {
      const VirtAddr addr = addr_of(r, p);
      if (regions[r]->Access(addr, false).kind == mem::AccessKind::kUffdFault) {
        const fm::FaultOutcome out = monitor.HandleFault(rids[r], addr, now);
        if (!out.status.ok()) {
          Flag(res, "read-back fault failed: " + out.status.ToString());
          continue;
        }
        now = out.wake_at;
      }
      if (!regions[r]->ReadBytes(addr, buf).ok() ||
          !StampMatches(buf, r * kStormPages + p, 0))
        Flag(res, "storm read-back mismatch");
    }
  }
  const auto t_oracle = Clock::now();
  res.gen_s = Seconds(t_built, t_gen);
  res.warmup_s = Seconds(t_gen, t_warm);
  res.setup_s = Seconds(t0, t_warm);
  res.measure_s = Seconds(t_warm, t_meas);
  res.oracle_s = Seconds(t_meas, t_oracle);
  return res;
}

// --- tenants -----------------------------------------------------------------

constexpr double kTenantScale = 6.0;
constexpr SimDuration kPumpEvery = 200 * kMicrosecond;
// Fixed CPU cost of one completed access, as the tenant composer charges.
constexpr SimDuration kAccessCost = 150;
constexpr VirtAddr kTenantBase = 0x6000'0000ULL;
constexpr VirtAddr kTenantStride = 1ULL << 32;

// Open-loop arrival times for one tenant at `load` times its standard rate,
// offset to `origin`.
std::vector<wl::TimedAccess> StampArrivals(
    const std::vector<wl::TraceAccess>& accs, std::uint32_t stream,
    const wl::ArrivalModel& m, double load, SimTime origin) {
  const auto scaled = [load](SimDuration d) {
    return static_cast<SimDuration>(
        std::llround(static_cast<double>(d) / load));
  };
  const SimTime start = origin + scaled(m.start);
  if (m.burst_len == 0)
    return wl::StampTrace(accs, stream, start, scaled(m.gap));
  std::vector<wl::TimedAccess> out;
  out.reserve(accs.size());
  SimTime at = start;
  std::size_t in_burst = 0;
  for (const wl::TraceAccess& a : accs) {
    out.push_back(wl::TimedAccess{at, stream, a});
    if (++in_burst >= m.burst_len) {
      in_burst = 0;
      at += scaled(m.idle_between_bursts);
    } else {
      at += scaled(m.burst_gap);
    }
  }
  return out;
}

RunResult RunTenants(std::uint64_t seed, double load, Tracer* tr) {
  const auto t0 = Clock::now();
  RunResult res;
  SeedStream seeds(seed);
  const std::vector<wl::TenantSpec> specs =
      wl::StandardTenants(5, wl::YcsbMix::kB, kTenantScale);

  // The bit_rot drill's store without its planted faults or replica death:
  // resilient -> replicated (3 replicas, write quorum 2) -> integrity
  // (CRC-32C envelopes, scrub budget 8) -> local DRAM.
  std::vector<kv::IntegrityStore*> integrity;
  std::vector<std::unique_ptr<kv::KvStore>> replicas;
  for (int i = 0; i < 3; ++i) {
    kv::LocalStoreConfig lc;
    lc.seed = seeds.Next();
    auto integ = std::make_unique<kv::IntegrityStore>(
        AtBoundary(std::make_unique<kv::LocalDramStore>(lc), Layer::kLocal, tr),
        /*scrub_budget=*/8);
    integrity.push_back(integ.get());
    replicas.push_back(AtBoundary(std::move(integ), Layer::kIntegrity, tr));
  }
  auto replicated_owner =
      std::make_unique<kv::ReplicatedStore>(std::move(replicas),
                                            /*write_quorum=*/2);
  kv::ReplicatedStore* replicated = replicated_owner.get();
  for (std::size_t i = 0; i < integrity.size(); ++i)
    integrity[i]->set_on_corruption([replicated, i](PartitionId p, kv::Key k) {
      replicated->ReportCorruption(i, p, k);
    });
  kv::ResilientStoreConfig rsc;
  rsc.seed = seeds.Next();
  auto resilient_owner = std::make_unique<kv::ResilientStore>(
      AtBoundary(std::move(replicated_owner), Layer::kReplicated, tr), rsc);
  const kv::ResilientStore* resilient = resilient_owner.get();
  const std::unique_ptr<kv::KvStore> store =
      AtBoundary(std::move(resilient_owner), Layer::kResilient, tr);

  std::size_t total_fp = 0;
  std::size_t quota_sum = 0;
  for (const wl::TenantSpec& s : specs) {
    total_fp += wl::YcsbFootprintPages(s.workload);
    quota_sum += s.quota_pages;
  }
  const std::size_t lru = quota_sum + 32;
  mem::FramePool pool(total_fp + lru + 256);
  fm::MonitorConfig mc;
  mc.lru_capacity_pages = lru;
  mc.write_batch_pages = 16;
  mc.fault_shards = 4;
  mc.prefetch_depth = 4;
  mc.prefetch.mode = fm::PrefetchMode::kMajority;
  mc.prefetch.accuracy_floor_pct = 40;
  mc.seed = seeds.Next();
  obs::Observability obs;
  fm::Monitor monitor(mc, *store, pool);
  if (tr != nullptr) {
    obs.Enable();
    monitor.AttachObservability(obs);
  }

  struct Tenant {
    VirtAddr base = 0;
    fm::RegionId rid = 0;
    std::unique_ptr<mem::UffdRegion> region;
    chaos::ShadowMemory shadow;
    std::vector<std::uint64_t> gen;
  };
  std::vector<Tenant> tenants(specs.size());
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const std::size_t fp = wl::YcsbFootprintPages(specs[t].workload);
    tenants[t].base = kTenantBase + static_cast<VirtAddr>(t) * kTenantStride;
    tenants[t].region = std::make_unique<mem::UffdRegion>(
        static_cast<ProcessId>(100 + t), tenants[t].base, fp, pool);
    tenants[t].rid = monitor.RegisterRegion(
        *tenants[t].region, static_cast<PartitionId>(t + 1),
        specs[t].quota_pages);
    tenants[t].gen.assign(fp, 0);
  }
  const auto t_built = Clock::now();

  std::vector<std::vector<wl::TraceAccess>> streams;
  for (const wl::TenantSpec& s : specs)
    streams.push_back(wl::GenerateYcsb(s.workload, seeds.Next()));
  const auto t_gen = Clock::now();

  // First touches: every page of every tenant written once.
  SimTime now = 0;
  SimTime next_pump = kPumpEvery;
  const auto pump_until = [&](SimTime t) {
    while (next_pump <= t) {
      Tracer::Scope s(tr, Layer::kFluidmem, Call::kPumpBackground);
      monitor.PumpBackground(std::max(now, next_pump));
      next_pump += kPumpEvery;
    }
  };
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    Tenant& tn = tenants[t];
    for (std::size_t page = 0; page < tn.gen.size(); ++page) {
      const VirtAddr addr = tn.base + page * kPageSize;
      pump_until(now);
      if (tn.region->Access(addr, true).kind == mem::AccessKind::kUffdFault) {
        const fm::FaultOutcome out = monitor.HandleFault(tn.rid, addr, now);
        if (!out.status.ok()) {
          Flag(res, "first touch failed: " + out.status.ToString());
          return res;
        }
        now = out.wake_at;
        (void)tn.region->Access(addr, true);
      }
      const auto b = StampBytes(page, ++tn.gen[page]);
      if (!tn.region->WriteBytes(addr, b).ok()) {
        Flag(res, "first-touch write failed");
        return res;
      }
      tn.shadow.Write(addr, b);
    }
  }
  now = monitor.DrainWrites(now);
  const auto t_warm = Clock::now();

  // Arrivals are stamped in virtual time from the seeded streams, so the
  // generator is never late: lateness is zero by construction.
  const SimTime origin = (now / kPumpEvery + 1) * kPumpEvery;
  std::vector<std::vector<wl::TimedAccess>> stamped;
  for (std::size_t t = 0; t < specs.size(); ++t)
    stamped.push_back(StampArrivals(streams[t], static_cast<std::uint32_t>(t),
                                    specs[t].arrival, load, origin));
  const std::vector<wl::TimedAccess> merged = wl::MergeByTimestamp(stamped);
  const auto t_stamp = Clock::now();

  // Serve merged[i]: returns its service lag (start - arrival) and latency
  // (completion - arrival). The replay is open loop: service starts when
  // the stack is free and the access has arrived.
  std::array<std::byte, 8> buf{};
  next_pump = origin;
  const auto serve = [&](std::size_t i) -> std::pair<SimDuration, SimDuration> {
    const wl::TimedAccess& ta = merged[i];
    pump_until(ta.at);
    Tenant& tn = tenants[ta.stream];
    const std::size_t page = ta.access.page;
    const VirtAddr addr = tn.base + page * kPageSize;
    const bool write = ta.access.is_write;
    SimTime t = std::max(now, ta.at);
    const SimDuration lag = t - ta.at;
    // Bounded retry, as the guest would: back off 100us after a failed
    // fault and try again.
    bool resident = false;
    for (int attempt = 0; attempt < 4 && !resident; ++attempt) {
      mem::AccessResult a;
      {
        Tracer::Scope s(tr, Layer::kMem, Call::kAccess);
        a = tn.region->Access(addr, write);
      }
      if (a.kind != mem::AccessKind::kUffdFault) {
        if (a.kind == mem::AccessKind::kHit) {
          Tracer::Scope s(tr, Layer::kFluidmem, Call::kNotePageTouch);
          monitor.NotePageTouch(tn.rid, addr);
        }
        resident = true;
        break;
      }
      fm::FaultOutcome o;
      {
        Tracer::Scope s(tr, Layer::kFluidmem, Call::kHandleFault);
        o = monitor.HandleFault(tn.rid, addr, t);
      }
      t = std::max(t, o.wake_at);
      if (o.deadlocked) break;
      if (!o.status.ok()) t += 100 * kMicrosecond;
    }
    if (!resident) {
      Tracer::Scope s(tr, Layer::kMem, Call::kAccess);
      resident = tn.region->Access(addr, write).kind !=
                 mem::AccessKind::kUffdFault;
    }
    if (!resident) {
      Flag(res, "access blocked after retries");
    } else if (write) {
      const auto b = StampBytes(page, ++tn.gen[page]);
      Status st;
      {
        Tracer::Scope s(tr, Layer::kMem, Call::kWriteBytes);
        st = tn.region->WriteBytes(addr, b);
      }
      if (!st.ok()) Flag(res, "write to a resident page failed");
      tn.shadow.Write(addr, b);
    } else {
      Status st;
      {
        Tracer::Scope s(tr, Layer::kMem, Call::kReadBytes);
        st = tn.region->ReadBytes(addr, buf);
      }
      if (!st.ok() || !StampMatches(buf, page, tn.gen[page]))
        Flag(res, "read-back mismatch on a tenant read");
    }
    now = t + kAccessCost;
    return {lag, now - ta.at};
  };

  // The first stretch of traffic refills the caches the first touches left
  // cold; without it the start-up queue sets every tenant's tail.
  const std::size_t warm = merged.size() / 5;
  for (std::size_t i = 0; i < warm; ++i) (void)serve(i);
  const auto t_open = Clock::now();

  MonitorSnap before;
  const kv::StoreStats rs_before = resilient->stats();
  const kv::ReplicatedStoreStats rep_before = replicated->replication_stats();
  std::uint64_t scrub_before = 0;
  for (const kv::IntegrityStore* s : integrity)
    scrub_before += s->integrity_stats().scrub_pages;
  if (tr != nullptr) {
    obs.ClearSpans();
    before = Snap(monitor);
    tr->Start();
  }
  std::vector<SimDuration> lat;
  std::vector<SimDuration> lags;
  lat.reserve(merged.size() - warm);
  lags.reserve(merged.size() - warm);
  std::vector<std::vector<SimDuration>> tenant_lat(tenants.size());
  for (std::size_t i = warm; i < merged.size(); ++i) {
    if (tr != nullptr) tr->SetAccess(static_cast<std::uint32_t>(i - warm));
    const auto [lag, latency] = serve(i);
    lags.push_back(lag);
    lat.push_back(latency);
    tenant_lat[merged[i].stream].push_back(latency);
  }
  const double measured = static_cast<double>(lat.size());
  res.accesses = lat.size();
  if (tr != nullptr) {
    tr->Stop();
    AddMonitorLayer(before, monitor, obs, measured, res.layer);
    res.layer["kvstore.retries"] =
        static_cast<double>(resilient->stats().retries - rs_before.retries);
    res.layer["kvstore.hedged_reads"] = static_cast<double>(
        resilient->stats().hedged_reads - rs_before.hedged_reads);
    std::uint64_t scrub_after = 0;
    for (const kv::IntegrityStore* s : integrity)
      scrub_after += s->integrity_stats().scrub_pages;
    res.layer["kvstore.scrub_pages"] =
        static_cast<double>(scrub_after - scrub_before);
    res.layer["kvstore.repairs"] = static_cast<double>(
        replicated->replication_stats().repairs - rep_before.repairs);
  }
  const auto t_meas = Clock::now();

  const SimTime first_at = merged.empty() ? 0 : merged[warm].at;
  const SimTime last_at = merged.empty() ? 0 : merged.back().at;
  Summarize(std::move(lat), now - first_at, res);
  res.offered_per_ms =
      Ratio(measured, static_cast<double>(last_at - first_at) / kMillisecond);
  for (std::size_t t = 0; t < specs.size(); ++t) {
    if (specs[t].role != wl::TenantRole::kSteady) continue;
    std::sort(tenant_lat[t].begin(), tenant_lat[t].end());
    res.steady_p99_over_slo =
        std::max(res.steady_p99_over_slo,
                 QuantileUs(tenant_lat[t], 0.99) / specs[t].slo_p99_us);
  }
  // Lag is averaged over the 5% of accesses ending at the midpoint and at
  // the end: one access's lag swings with every antagonist burst. Growth
  // within one pump period is the pump's granularity, not a backlog.
  const std::size_t window = std::max<std::size_t>(1, lags.size() / 20);
  const auto mean_lag_us = [&](std::size_t end) {
    long double sum = 0;
    for (std::size_t i = end - std::min(end, window); i < end; ++i)
      sum += lags[i];
    return static_cast<double>(sum / window) / 1000.0;
  };
  res.lag_mid_us = mean_lag_us(lags.size() / 2);
  res.lag_end_us = mean_lag_us(lags.size());
  const double pump_us = static_cast<double>(kPumpEvery) / 1000.0;
  res.within_slo = res.ok && res.steady_p99_over_slo <= 1.0 &&
                   res.lag_end_us <= res.lag_mid_us + pump_us;

  // Quiesce, then sweep every tenant against its shadow and check the
  // stack's bookkeeping invariants.
  now = monitor.DrainWrites(now);
  for (int round = 0; round < 8; ++round) {
    monitor.PumpBackground(now);
    now += 50 * kMicrosecond;
  }
  now = monitor.DrainWrites(now);
  chaos::StackView view;
  view.monitor = &monitor;
  view.pool = &pool;
  view.store = store.get();
  for (Tenant& tn : tenants) view.regions.push_back({tn.rid, tn.region.get()});
  if (auto violation = chaos::CheckInvariants(view))
    Flag(res, "invariant violation: " + *violation);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    Tenant& tn = tenants[t];
    if (auto bad = chaos::VerifyRegionAgainstShadow(
            monitor, *tn.region, tn.rid, *store, pool, tn.shadow, now))
      Flag(res, "tenant " + specs[t].name + ": " + *bad);
  }
  const auto t_oracle = Clock::now();
  res.gen_s = Seconds(t_built, t_gen) + Seconds(t_warm, t_stamp);
  res.warmup_s = Seconds(t_gen, t_warm) + Seconds(t_stamp, t_open);
  res.setup_s = Seconds(t0, t_open);
  res.measure_s = Seconds(t_open, t_meas);
  res.oracle_s = Seconds(t_meas, t_oracle);
  return res;
}

}  // namespace

RunResult RunOnce(Workload w, std::uint64_t seed, double load,
                  Tracer* tracer) {
  switch (w) {
    case Workload::kPmbench: return RunPmbench(seed, tracer);
    case Workload::kStorm: return RunStorm(seed, tracer);
    case Workload::kTenants: return RunTenants(seed, load, tracer);
  }
  RunResult bad;
  Flag(bad, "unknown workload");
  return bad;
}

}  // namespace perfbench
