// Host-time spans recorded from outside the simulator.
//
// The traced run opens one span around every call the benchmark makes into
// a layer (FluidVm, UffdRegion, Monitor, FaultEngine) and TimingStore opens
// one around every KvStore verb at each store boundary the benchmark builds.
// A span records its layer, call, host start/end, parent span and the index
// of the workload access it served; store spans also carry the virtual
// `now`/completion and the status. Self time is a span's duration minus the
// part its child spans cover.
//
// Spans are kept in memory and written out when the run ends. Nothing is
// recorded outside Start()/Stop(), so set-up and the read-back sweep cost
// one branch per call.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kVm,
  kMem,
  kFluidmem,
  // Store boundaries, outermost first. Each names the store it wraps.
  kResilient,
  kReplicated,
  kIntegrity,
  kRamcloud,
  kLocal,
  kCount,
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

std::string_view LayerName(Layer l) noexcept;

enum class Call : std::uint8_t {
  // FluidVm
  kTouch,
  // UffdRegion
  kAccess,
  kQueueEvent,
  kReadBytes,
  kWriteBytes,
  // Monitor / FaultEngine
  kHandleFault,
  kNotePageTouch,
  kPumpBackground,
  kPumpQueuedFaults,
  // KvStore verbs
  kGet,
  kMultiGet,
  kPut,
  kMultiPut,
  kMaint,
  kRemove,
  kDropPartition,
  kCount,
};
inline constexpr std::size_t kCallCount =
    static_cast<std::size_t>(Call::kCount);

std::string_view CallName(Call c) noexcept;

struct SpanRecord {
  std::uint64_t start_ns = 0;  // host, since Start()
  std::uint64_t end_ns = 0;
  fluid::SimTime vnow = 0;   // store spans: the caller's virtual now
  fluid::SimTime vdone = 0;  // store spans: complete_at (maint: returned time)
  std::uint32_t parent = 0;  // index + 1 of the enclosing span; 0 = none
  std::uint32_t access = 0;  // workload access being served
  std::uint32_t batch = 0;   // objects or events the call carried
  Layer layer = Layer::kVm;
  Call call = Call::kTouch;
  bool ok = true;
};

// Per (layer, call) aggregates folded in as spans close.
struct CallAgg {
  std::uint64_t calls = 0;
  std::uint64_t objects = 0;     // sum of batch sizes
  double vlat_ns = 0;            // sum of (vdone - vnow)
};

struct LayerAgg {
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::array<CallAgg, kCallCount> calls{};
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNone = ~std::size_t{0};

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Start();
  void Stop() noexcept { recording_ = false; }
  void SetAccess(std::uint32_t i) noexcept { access_ = i; }

  // Open a span; returns kNone when not recording.
  std::size_t Open(Layer layer, Call call, std::uint32_t batch = 0) {
    if (!recording_) return kNone;
    return OpenSlow(layer, call, batch);
  }
  // Close the span `h` (no-op for kNone). Store spans pass their virtual
  // window and status.
  void Close(std::size_t h, fluid::SimTime vnow = 0, fluid::SimTime vdone = 0,
             bool ok = true) {
    if (h != kNone) CloseSlow(h, vnow, vdone, ok);
  }

  // Span around a non-store call, closed at scope exit.
  class Scope {
   public:
    Scope(Tracer* t, Layer layer, Call call, std::uint32_t batch = 0)
        : t_(t), h_(t != nullptr ? t->Open(layer, call, batch) : kNone) {}
    ~Scope() {
      if (t_ != nullptr) t_->Close(h_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::size_t h_;
  };

  const LayerAgg& layer(Layer l) const noexcept {
    return layers_[static_cast<std::size_t>(l)];
  }
  std::size_t span_count() const noexcept { return spans_.size(); }

  // Write every retained span as one tab-separated line. Returns false on
  // an I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  std::size_t OpenSlow(Layer layer, Call call, std::uint32_t batch);
  void CloseSlow(std::size_t h, fluid::SimTime vnow, fluid::SimTime vdone,
                 bool ok);
  std::uint64_t NowNs() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count());
  }

  struct OpenSpan {
    std::size_t index = 0;
    std::uint64_t child_ns = 0;  // host time covered by closed children
  };

  bool recording_ = false;
  std::uint32_t access_ = 0;
  Clock::time_point origin_{};
  std::vector<SpanRecord> spans_;
  std::vector<OpenSpan> stack_;
  std::array<LayerAgg, kLayerCount> layers_{};
};

}  // namespace perfbench
