// TimingStore: a pass-through KvStore that records one span per call.
//
// The traced run puts one at every store boundary it builds (the store the
// monitor sees, each decorator's inner store, each replica), so the host
// and virtual cost of today's single `remote_read` stage splits across the
// decorator stack without touching the stores. Every KvStore virtual is
// forwarded — MultiGet, MultiPut, PumpMaintenance, ForEachKey, DropPartition
// and stats() included — so native batching and maintenance never fall back
// to the base-class adapters and the simulation is unchanged.
#pragma once

#include <memory>
#include <utility>

#include "kvstore/kvstore.h"
#include "tracer.h"

namespace perfbench {

class TimingStore final : public fluid::kv::KvStore {
 public:
  TimingStore(std::unique_ptr<fluid::kv::KvStore> inner, Layer boundary,
              Tracer& tracer)
      : inner_(std::move(inner)), layer_(boundary), tracer_(&tracer) {}

  std::string_view name() const override { return inner_->name(); }
  bool has_native_partitions() const override {
    return inner_->has_native_partitions();
  }

  fluid::kv::OpResult Put(fluid::PartitionId partition, fluid::kv::Key key,
                          std::span<const std::byte, fluid::kPageSize> value,
                          fluid::SimTime now) override {
    const std::size_t h = tracer_->Open(layer_, Call::kPut, 1);
    fluid::kv::OpResult r = inner_->Put(partition, key, value, now);
    tracer_->Close(h, now, r.complete_at, r.status.ok());
    return r;
  }
  fluid::kv::OpResult Get(fluid::PartitionId partition, fluid::kv::Key key,
                          std::span<std::byte, fluid::kPageSize> out,
                          fluid::SimTime now) override {
    const std::size_t h = tracer_->Open(layer_, Call::kGet, 1);
    fluid::kv::OpResult r = inner_->Get(partition, key, out, now);
    tracer_->Close(h, now, r.complete_at, r.status.ok());
    return r;
  }
  fluid::kv::OpResult Remove(fluid::PartitionId partition, fluid::kv::Key key,
                             fluid::SimTime now) override {
    const std::size_t h = tracer_->Open(layer_, Call::kRemove, 1);
    fluid::kv::OpResult r = inner_->Remove(partition, key, now);
    tracer_->Close(h, now, r.complete_at, r.status.ok());
    return r;
  }
  fluid::kv::OpResult MultiPut(fluid::PartitionId partition,
                               std::span<fluid::kv::KvWrite> writes,
                               fluid::SimTime now) override {
    const std::size_t h = tracer_->Open(
        layer_, Call::kMultiPut, static_cast<std::uint32_t>(writes.size()));
    fluid::kv::OpResult r = inner_->MultiPut(partition, writes, now);
    tracer_->Close(h, now, r.complete_at, r.status.ok());
    return r;
  }
  fluid::kv::OpResult MultiGet(fluid::PartitionId partition,
                               std::span<fluid::kv::KvRead> reads,
                               fluid::SimTime now) override {
    const std::size_t h = tracer_->Open(
        layer_, Call::kMultiGet, static_cast<std::uint32_t>(reads.size()));
    fluid::kv::OpResult r = inner_->MultiGet(partition, reads, now);
    tracer_->Close(h, now, r.complete_at, r.status.ok());
    return r;
  }
  fluid::kv::OpResult DropPartition(fluid::PartitionId partition,
                                    fluid::SimTime now) override {
    const std::size_t h = tracer_->Open(layer_, Call::kDropPartition);
    fluid::kv::OpResult r = inner_->DropPartition(partition, now);
    tracer_->Close(h, now, r.complete_at, r.status.ok());
    return r;
  }
  fluid::SimTime PumpMaintenance(fluid::SimTime now) override {
    const std::size_t h = tracer_->Open(layer_, Call::kMaint);
    const fluid::SimTime done = inner_->PumpMaintenance(now);
    tracer_->Close(h, now, done, true);
    return done;
  }
  void ForEachKey(
      const std::function<void(fluid::PartitionId, fluid::kv::Key)>& fn)
      const override {
    inner_->ForEachKey(fn);
  }

  bool Contains(fluid::PartitionId partition,
                fluid::kv::Key key) const override {
    return inner_->Contains(partition, key);
  }
  std::size_t ObjectCount() const override { return inner_->ObjectCount(); }
  std::size_t BytesStored() const override { return inner_->BytesStored(); }
  const fluid::kv::StoreStats& stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<fluid::kv::KvStore> inner_;
  Layer layer_;
  Tracer* tracer_;
};

// Wrap `store` in a TimingStore when tracing; pass it through otherwise.
inline std::unique_ptr<fluid::kv::KvStore> AtBoundary(
    std::unique_ptr<fluid::kv::KvStore> store, Layer boundary,
    Tracer* tracer) {
  if (tracer == nullptr) return store;
  return std::make_unique<TimingStore>(std::move(store), boundary, *tracer);
}

}  // namespace perfbench
