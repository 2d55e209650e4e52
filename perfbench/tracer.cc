#include "tracer.h"

#include <cstdio>

namespace perfbench {

std::string_view LayerName(Layer l) noexcept {
  switch (l) {
    case Layer::kVm: return "vm";
    case Layer::kMem: return "mem";
    case Layer::kFluidmem: return "fluidmem";
    case Layer::kResilient: return "resilient";
    case Layer::kReplicated: return "replicated";
    case Layer::kIntegrity: return "integrity";
    case Layer::kRamcloud: return "ramcloud";
    case Layer::kLocal: return "local";
    case Layer::kCount: break;
  }
  return "?";
}

std::string_view CallName(Call c) noexcept {
  switch (c) {
    case Call::kTouch: return "Touch";
    case Call::kAccess: return "Access";
    case Call::kQueueEvent: return "QueueEvent";
    case Call::kReadBytes: return "ReadBytes";
    case Call::kWriteBytes: return "WriteBytes";
    case Call::kHandleFault: return "HandleFault";
    case Call::kNotePageTouch: return "NotePageTouch";
    case Call::kPumpBackground: return "PumpBackground";
    case Call::kPumpQueuedFaults: return "PumpQueuedFaults";
    case Call::kGet: return "get";
    case Call::kMultiGet: return "multiget";
    case Call::kPut: return "put";
    case Call::kMultiPut: return "multiput";
    case Call::kMaint: return "maint";
    case Call::kRemove: return "remove";
    case Call::kDropPartition: return "drop";
    case Call::kCount: break;
  }
  return "?";
}

void Tracer::Start() {
  spans_.clear();
  stack_.clear();
  layers_ = {};
  access_ = 0;
  origin_ = Clock::now();
  recording_ = true;
}

std::size_t Tracer::OpenSlow(Layer layer, Call call, std::uint32_t batch) {
  SpanRecord r;
  r.layer = layer;
  r.call = call;
  r.batch = batch;
  r.access = access_;
  r.parent = stack_.empty()
                 ? 0
                 : static_cast<std::uint32_t>(stack_.back().index + 1);
  const std::size_t h = spans_.size();
  spans_.push_back(r);
  stack_.push_back(OpenSpan{h, 0});
  // Stamp last so the bookkeeping above is not charged to the span.
  spans_[h].start_ns = NowNs();
  return h;
}

void Tracer::CloseSlow(std::size_t h, fluid::SimTime vnow,
                       fluid::SimTime vdone, bool ok) {
  const std::uint64_t end = NowNs();
  SpanRecord& r = spans_[h];
  r.end_ns = end;
  r.vnow = vnow;
  r.vdone = vdone;
  r.ok = ok;
  // Spans close in LIFO order (every Open is paired with a Close in the
  // same scope), so the top of the stack is `h`.
  const std::uint64_t child_ns = stack_.back().child_ns;
  stack_.pop_back();
  const std::uint64_t dur = end > r.start_ns ? end - r.start_ns : 0;
  LayerAgg& agg = layers_[static_cast<std::size_t>(r.layer)];
  agg.total_ns += dur;
  agg.self_ns += dur > child_ns ? dur - child_ns : 0;
  CallAgg& c = agg.calls[static_cast<std::size_t>(r.call)];
  ++c.calls;
  c.objects += r.batch;
  if (vdone > vnow) c.vlat_ns += static_cast<double>(vdone - vnow);
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "id\tparent\tlayer\tcall\taccess\tbatch\thost_start_ns\t"
               "host_end_ns\tvirt_now_ns\tvirt_done_ns\tok\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& r = spans_[i];
    std::fprintf(f, "%zu\t%u\t%s\t%s\t%u\t%u\t%llu\t%llu\t%llu\t%llu\t%d\n",
                 i + 1, r.parent, LayerName(r.layer).data(),
                 CallName(r.call).data(), r.access, r.batch,
                 static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns),
                 static_cast<unsigned long long>(r.vnow),
                 static_cast<unsigned long long>(r.vdone), r.ok ? 1 : 0);
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
