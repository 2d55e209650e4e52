// The three benchmark workloads. Each run builds its stack from the layers'
// public constructors, generates its inputs from the seed, runs the
// measured phase once and checks every byte it reads back.
//
//   pmbench  closed loop, one vCPU, one access outstanding, on the Fig. 3
//            FluidMem-RAMCloud testbed (16,384-page working set over 4,096
//            pages of local DRAM, serial monitor, majority-vote prefetch).
//   storm    every remote page of 8 over-committed regions refaults at one
//            instant and drains through the K=16 sharded engine.
//   tenants  five YCSB tenants in an open loop over a K=4 monitor and the
//            resilient -> replicated(3) -> integrity -> local-DRAM stack.
//
// With a Tracer the run also wraps every store boundary in a TimingStore,
// attaches the observability hub and fills RunResult::layer; the virtual
// results must not change.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/types.h"
#include "tracer.h"

namespace perfbench {

enum class Workload : std::uint8_t { kPmbench, kStorm, kTenants };

struct RunResult {
  bool ok = true;
  std::string failure;  // first correctness violation, for the log

  // --- virtual time, measured phase ---------------------------------------
  std::uint64_t accesses = 0;  // attempted
  std::uint64_t failed = 0;    // failed faults + blocked + read-back mismatches
  double mean_us = 0, p50_us = 0, p99_us = 0, p999_us = 0;
  double vthroughput_per_ms = 0;
  double span_ms = 0;  // first due time to last completion
  // Hash of every access latency in order, the failure count and the final
  // virtual time: two runs of one seed must agree on it.
  std::uint64_t fingerprint = 0;

  // --- tenants: open-loop load -------------------------------------------
  double offered_per_ms = 0;       // accesses over the arrival span
  double steady_p99_over_slo = 0;  // worst steady tenant's p99 / its SLO
  double lag_mid_us = 0;           // service lag near the midpoint
  double lag_end_us = 0;           // and at the end of the run
  // Every steady tenant meets its p99 SLO and the backlog does not grow.
  bool within_slo = false;

  // --- host time ------------------------------------------------------------
  double gen_s = 0;      // input generation
  double warmup_s = 0;   // boot / populate / first touches
  double setup_s = 0;    // construction + gen + warm-up
  double measure_s = 0;  // the measured phase
  double oracle_s = 0;   // read-back sweep after the measured phase

  // Virtual per-layer figures of a traced run, by metric name.
  std::map<std::string, double> layer;
};

// `load` multiplies every tenant's arrival rate (tenants only).
RunResult RunOnce(Workload w, std::uint64_t seed, double load,
                  Tracer* tracer);

}  // namespace perfbench
