#include "queries/semantic_cache.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <list>

#include "common/metrics.h"
#include "common/serialize.h"
#include "common/trace.h"
#include "storage/sharded_store.h"

namespace visualroad::queries {

namespace {

/// FNV-1a over a string, for stable persisted-entry file names.
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

constexpr uint32_t kPersistMagic = 0x43535256;  // "VRSC" little-endian.
constexpr uint32_t kPersistVersion = 1;

/// Registry instruments, shared process-wide (the cache itself may have
/// several instances; the metrics aggregate them, like the store counters).
struct Instruments {
  metrics::Counter& hits;
  metrics::Counter& misses;
  metrics::Counter& coalesced;
  metrics::Counter& insertions;
  metrics::Counter& extensions;
  metrics::Counter& evictions;
  metrics::Counter& persisted;
  metrics::Counter& loaded;
  metrics::Gauge& bytes_in_use;
  metrics::Gauge& entries;

  static Instruments& Get() {
    static Instruments* instruments = [] {
      auto& registry = metrics::MetricsRegistry::Global();
      return new Instruments{
          registry.GetCounter("vr_semcache_hits_total",
                              "Semantic-cache probes answered by a covering "
                              "materialized entry"),
          registry.GetCounter("vr_semcache_misses_total",
                              "Semantic-cache probes that ran the model "
                              "(single-flight leader)"),
          registry.GetCounter("vr_semcache_coalesced_total",
                              "Semantic-cache probes that waited on another "
                              "caller's in-flight compute"),
          registry.GetCounter("vr_semcache_insertions_total",
                              "New semantic-cache entries published"),
          registry.GetCounter("vr_semcache_extensions_total",
                              "Inserts merged into an existing entry "
                              "(incremental maintenance)"),
          registry.GetCounter("vr_semcache_evictions_total",
                              "Semantic-cache entries dropped to fit the "
                              "byte budget"),
          registry.GetCounter("vr_semcache_persisted_total",
                              "Semantic-cache entries written through the "
                              "sharded store"),
          registry.GetCounter("vr_semcache_loaded_total",
                              "Semantic-cache entries recovered from the "
                              "sharded store"),
          registry.GetGauge("vr_semcache_bytes_in_use",
                            "Resident bytes across semantic-cache entries"),
          registry.GetGauge("vr_semcache_entries",
                            "Resident semantic-cache entries")};
    }();
    return *instruments;
  }
};

}  // namespace

bool SemanticKey::operator==(const SemanticKey& other) const {
  // Threshold compares by bit pattern: any numeric difference is a distinct
  // materialization, and NaN never silently equals anything.
  uint64_t a, b;
  std::memcpy(&a, &threshold, sizeof(a));
  std::memcpy(&b, &other.threshold, sizeof(b));
  return stream == other.stream && model == other.model && a == b;
}

std::string SemanticKey::Serialized() const {
  uint64_t bits;
  std::memcpy(&bits, &threshold, sizeof(bits));
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%016llx|%016llx|",
                static_cast<unsigned long long>(stream),
                static_cast<unsigned long long>(bits));
  return std::string(buffer) + model;
}

void SemanticEntry::RecomputeBytes() {
  int64_t total = static_cast<int64_t>(sizeof(SemanticEntry)) +
                  static_cast<int64_t>(key.model.size());
  for (const auto& frame : detections) {
    total += static_cast<int64_t>(sizeof(frame)) +
             static_cast<int64_t>(frame.size()) *
                 static_cast<int64_t>(sizeof(vision::Detection));
  }
  bytes = total;
}

std::string ModelFingerprint(const vision::DetectorOptions& options,
                             const std::string& variant, int version) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "[in=%d,seed=%llu,recall=%g,fp=%g,jitter=%g,vis=%g,minpx=%d]@v%d",
                options.input_size,
                static_cast<unsigned long long>(options.seed),
                options.base_recall, options.false_positives_per_frame,
                options.box_jitter, options.min_visible_fraction,
                options.min_box_pixels, version);
  return variant + buffer;
}

struct SemanticCache::Impl {
  struct Slot {
    std::shared_ptr<SemanticEntry> entry;
    uint64_t tick = 0;  // Recency; larger = more recently used.
  };

  struct Inflight {
    std::mutex mutex;
    std::condition_variable ready;
    bool done = false;
    Status status = Status::Ok();
    std::shared_ptr<const SemanticEntry> result;
  };

  explicit Impl(const SemanticCacheOptions& opts) : options(opts) {}

  /// Covering ready entry for (key, range), most recent first. Caller holds
  /// the lock.
  std::shared_ptr<SemanticEntry> FindCoveringLocked(const std::string& keystr,
                                                    FrameRange range,
                                                    bool bump) {
    auto it = entries.find(keystr);
    if (it == entries.end()) return nullptr;
    Slot* best = nullptr;
    for (Slot& slot : it->second) {
      if (!slot.entry->range.Contains(range)) continue;
      if (best == nullptr || slot.tick > best->tick) best = &slot;
    }
    if (best == nullptr) return nullptr;
    if (bump) best->tick = ++tick;
    return best->entry;
  }

  /// Evicts least-recently-used entries until the budget fits. Caller holds
  /// the lock.
  void EvictLocked() {
    auto& instruments = Instruments::Get();
    while (bytes_in_use > capacity_bytes && entry_count > 0) {
      std::string victim_key;
      size_t victim_index = 0;
      uint64_t victim_tick = ~uint64_t{0};
      for (auto& [keystr, slots] : entries) {
        for (size_t i = 0; i < slots.size(); ++i) {
          if (slots[i].tick < victim_tick) {
            victim_tick = slots[i].tick;
            victim_key = keystr;
            victim_index = i;
          }
        }
      }
      auto& slots = entries[victim_key];
      bytes_in_use -= slots[victim_index].entry->bytes;
      slots.erase(slots.begin() + static_cast<int64_t>(victim_index));
      if (slots.empty()) entries.erase(victim_key);
      --entry_count;
      ++stats.evictions;
      instruments.evictions.Increment();
    }
    instruments.bytes_in_use.Set(static_cast<double>(bytes_in_use));
    instruments.entries.Set(static_cast<double>(entry_count));
  }

  SemanticCacheOptions options;
  std::mutex mutex;
  std::map<std::string, std::vector<Slot>> entries;
  std::map<std::string, std::shared_ptr<Inflight>> inflight;
  uint64_t tick = 0;
  int64_t capacity_bytes = 0;
  int64_t bytes_in_use = 0;
  int64_t entry_count = 0;
  SemanticCacheStats stats;
};

SemanticCache::SemanticCache(const SemanticCacheOptions& options)
    : impl_(std::make_unique<Impl>(options)) {
  impl_->capacity_bytes = options.capacity_bytes;
}

SemanticCache::~SemanticCache() = default;

SemanticCache& SemanticCache::Global() {
  static SemanticCache* cache = new SemanticCache();
  return *cache;
}

std::shared_ptr<const SemanticEntry> SemanticCache::Probe(
    const SemanticKey& key, FrameRange range) {
  TRACE_SPAN("semcache:probe");
  if (range.count <= 0) return nullptr;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::shared_ptr<SemanticEntry> found =
      impl_->FindCoveringLocked(key.Serialized(), range, /*bump=*/true);
  if (found != nullptr) {
    ++impl_->stats.hits;
    Instruments::Get().hits.Increment();
  }
  return found;
}

std::shared_ptr<const SemanticEntry> SemanticCache::Peek(
    const SemanticKey& key, FrameRange range) const {
  if (range.count <= 0) return nullptr;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->FindCoveringLocked(key.Serialized(), range, /*bump=*/false);
}

StatusOr<std::shared_ptr<const SemanticEntry>> SemanticCache::GetOrCompute(
    const SemanticKey& key, FrameRange range, const ComputeFn& compute,
    Outcome* outcome) {
  if (range.count <= 0) return Status::InvalidArgument("empty semantic range");
  const std::string keystr = key.Serialized();
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), "#%d+%d", range.first, range.count);
  const std::string flight_key = keystr + suffix;

  std::shared_ptr<Impl::Inflight> flight;
  bool leader = false;
  {
    TRACE_SPAN("semcache:probe");
    std::lock_guard<std::mutex> lock(impl_->mutex);
    std::shared_ptr<SemanticEntry> found =
        impl_->FindCoveringLocked(keystr, range, /*bump=*/true);
    if (found != nullptr) {
      ++impl_->stats.hits;
      Instruments::Get().hits.Increment();
      if (outcome != nullptr) *outcome = Outcome::kHit;
      return std::shared_ptr<const SemanticEntry>(found);
    }
    auto it = impl_->inflight.find(flight_key);
    if (it != impl_->inflight.end()) {
      flight = it->second;
      ++impl_->stats.coalesced;
      Instruments::Get().coalesced.Increment();
      if (outcome != nullptr) *outcome = Outcome::kCoalesced;
    } else {
      flight = std::make_shared<Impl::Inflight>();
      impl_->inflight.emplace(flight_key, flight);
      leader = true;
      ++impl_->stats.misses;
      Instruments::Get().misses.Increment();
      if (outcome != nullptr) *outcome = Outcome::kMiss;
    }
  }

  if (!leader) {
    std::unique_lock<std::mutex> wait_lock(flight->mutex);
    flight->ready.wait(wait_lock, [&] { return flight->done; });
    if (!flight->status.ok()) return flight->status;
    return flight->result;
  }

  StatusOr<SemanticEntry> computed = [&] {
    TRACE_SPAN("semcache:populate");
    return compute();
  }();

  std::shared_ptr<const SemanticEntry> published;
  Status status = computed.status();
  if (computed.ok()) {
    if (!(computed->key == key) || computed->range.first != range.first ||
        computed->range.count != range.count) {
      status = Status::Internal("semantic compute returned a mismatched entry");
    } else {
      auto direct = std::make_shared<SemanticEntry>(std::move(*computed));
      Insert(*direct);
      {
        // Re-find without counting a hit: Insert may have merged the entry
        // into a larger neighbour, and this lookup is part of the miss.
        std::lock_guard<std::mutex> lock(impl_->mutex);
        published = impl_->FindCoveringLocked(keystr, range, /*bump=*/false);
      }
      // An entry larger than the whole byte budget is evicted on arrival;
      // still serve this caller the computed result, just uncached.
      if (published == nullptr) published = direct;
    }
  }

  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->inflight.erase(flight_key);
  }
  {
    std::lock_guard<std::mutex> flight_lock(flight->mutex);
    flight->status = status;
    flight->result = published;
    flight->done = true;
  }
  flight->ready.notify_all();
  if (!status.ok()) return status;
  return published;
}

void SemanticCache::Insert(SemanticEntry entry) {
  if (entry.range.count <= 0 ||
      entry.detections.size() != static_cast<size_t>(entry.range.count)) {
    return;  // Malformed; dropping is safer than publishing.
  }
  entry.RecomputeBytes();
  const std::string keystr = entry.key.Serialized();
  auto& instruments = Instruments::Get();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slots = impl_->entries[keystr];

  // Fully covered by an existing entry: nothing new, refresh recency.
  for (Impl::Slot& slot : slots) {
    if (slot.entry->range.Contains(entry.range)) {
      slot.tick = ++impl_->tick;
      return;
    }
  }

  // Merge-on-insert: coalesce with every adjacent or overlapping same-key
  // entry so arriving GOPs extend a materialization instead of fragmenting
  // it. Overlapping frames keep the already-published copy (same key =>
  // same model and stream => identical content by construction).
  bool extended = false;
  for (size_t i = 0; i < slots.size();) {
    SemanticEntry& existing = *slots[i].entry;
    bool touches = existing.range.first <= entry.range.last() &&
                   entry.range.first <= existing.range.last();
    if (!touches) {
      ++i;
      continue;
    }
    int merged_first = std::min(existing.range.first, entry.range.first);
    int merged_last = std::max(existing.range.last(), entry.range.last());
    std::vector<std::vector<vision::Detection>> merged(
        static_cast<size_t>(merged_last - merged_first));
    for (int f = 0; f < entry.range.count; ++f) {
      merged[static_cast<size_t>(entry.range.first - merged_first + f)] =
          std::move(entry.detections[static_cast<size_t>(f)]);
    }
    for (int f = 0; f < existing.range.count; ++f) {
      merged[static_cast<size_t>(existing.range.first - merged_first + f)] =
          std::move(existing.detections[static_cast<size_t>(f)]);
    }
    entry.range = FrameRange{merged_first, merged_last - merged_first};
    entry.detections = std::move(merged);
    entry.RecomputeBytes();
    impl_->bytes_in_use -= existing.bytes;
    slots.erase(slots.begin() + static_cast<int64_t>(i));
    --impl_->entry_count;
    extended = true;
    // Restart: the grown range may now touch further entries.
    i = 0;
  }

  auto published = std::make_shared<SemanticEntry>(std::move(entry));
  impl_->bytes_in_use += published->bytes;
  ++impl_->entry_count;
  slots.push_back(Impl::Slot{std::move(published), ++impl_->tick});
  if (extended) {
    ++impl_->stats.extensions;
    instruments.extensions.Increment();
  } else {
    ++impl_->stats.insertions;
    instruments.insertions.Increment();
  }
  impl_->EvictLocked();
}

std::vector<std::vector<vision::Detection>> SemanticCache::Slice(
    const SemanticEntry& entry, FrameRange range) {
  std::vector<std::vector<vision::Detection>> out;
  if (!entry.range.Contains(range)) return out;
  out.reserve(static_cast<size_t>(range.count));
  for (int f = 0; f < range.count; ++f) {
    out.push_back(entry.detections[static_cast<size_t>(
        range.first - entry.range.first + f)]);
  }
  return out;
}

Status SemanticCache::Persist() {
  if (impl_->options.store == nullptr) return Status::Ok();
  TRACE_SPAN("semcache:persist");
  std::vector<std::shared_ptr<SemanticEntry>> snapshot;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (auto& [keystr, slots] : impl_->entries) {
      for (auto& slot : slots) snapshot.push_back(slot.entry);
    }
  }
  auto& instruments = Instruments::Get();
  for (const auto& entry : snapshot) {
    ByteWriter writer;
    writer.U32(kPersistMagic);
    writer.U32(kPersistVersion);
    writer.U64(entry->key.stream);
    writer.Str(entry->key.model);
    writer.F64(entry->key.threshold);
    writer.I32(entry->range.first);
    writer.I32(entry->range.count);
    writer.I32(entry->width);
    writer.I32(entry->height);
    writer.F64(entry->fps);
    for (const auto& frame : entry->detections) {
      writer.U32(static_cast<uint32_t>(frame.size()));
      for (const vision::Detection& d : frame) {
        writer.U8(static_cast<uint8_t>(d.object_class));
        writer.I32(d.box.x0);
        writer.I32(d.box.y0);
        writer.I32(d.box.x1);
        writer.I32(d.box.y1);
        writer.F64(d.score);
        writer.I32(d.entity_id);
      }
    }
    char name[96];
    std::snprintf(name, sizeof(name), "%s%016llx-%d-%d",
                  impl_->options.store_prefix.c_str(),
                  static_cast<unsigned long long>(
                      Fnv1a(entry->key.Serialized())),
                  entry->range.first, entry->range.count);
    VR_RETURN_IF_ERROR(impl_->options.store->Put(name, writer.bytes()));
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      ++impl_->stats.persisted;
    }
    instruments.persisted.Increment();
  }
  return Status::Ok();
}

Status SemanticCache::LoadPersisted() {
  if (impl_->options.store == nullptr) return Status::Ok();
  TRACE_SPAN("semcache:load");
  auto& instruments = Instruments::Get();
  const std::string& prefix = impl_->options.store_prefix;
  for (const std::string& name : impl_->options.store->List()) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    VR_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                        impl_->options.store->Get(name));
    ByteCursor cursor(bytes);
    if (cursor.U32() != kPersistMagic || cursor.U32() != kPersistVersion) {
      return Status::DataLoss("semantic cache entry header mismatch: " + name);
    }
    SemanticEntry entry;
    entry.key.stream = cursor.U64();
    entry.key.model = cursor.Str();
    entry.key.threshold = cursor.F64();
    entry.range.first = cursor.I32();
    entry.range.count = cursor.I32();
    entry.width = cursor.I32();
    entry.height = cursor.I32();
    entry.fps = cursor.F64();
    // Each frame takes at least its 4-byte count and each detection 29
    // bytes, so both counts are bounded by the bytes left before anything
    // is sized from them.
    constexpr size_t kMinFrameBytes = 4, kMinDetectionBytes = 29;
    if (!cursor.ok() || entry.range.count <= 0 || entry.range.count > (1 << 24) ||
        static_cast<size_t>(entry.range.count) > cursor.remaining() / kMinFrameBytes) {
      return Status::DataLoss("semantic cache entry truncated: " + name);
    }
    entry.detections.resize(static_cast<size_t>(entry.range.count));
    for (auto& frame : entry.detections) {
      uint32_t count = cursor.U32();
      if (!cursor.ok() || count > (1u << 20) ||
          count > cursor.remaining() / kMinDetectionBytes) {
        return Status::DataLoss("semantic cache entry truncated: " + name);
      }
      frame.resize(count);
      for (vision::Detection& d : frame) {
        d.object_class = static_cast<sim::ObjectClass>(cursor.U8());
        d.box.x0 = cursor.I32();
        d.box.y0 = cursor.I32();
        d.box.x1 = cursor.I32();
        d.box.y1 = cursor.I32();
        d.score = cursor.F64();
        d.entity_id = cursor.I32();
      }
    }
    if (!cursor.ok()) {
      return Status::DataLoss("semantic cache entry truncated: " + name);
    }
    Insert(std::move(entry));
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      ++impl_->stats.loaded;
    }
    instruments.loaded.Increment();
  }
  return Status::Ok();
}

std::vector<std::shared_ptr<const SemanticEntry>> SemanticCache::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::pair<uint64_t, std::shared_ptr<const SemanticEntry>>> ticked;
  for (const auto& [keystr, slots] : impl_->entries) {
    for (const Impl::Slot& slot : slots) {
      ticked.emplace_back(slot.tick, slot.entry);
    }
  }
  std::sort(ticked.begin(), ticked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::shared_ptr<const SemanticEntry>> out;
  out.reserve(ticked.size());
  for (auto& [tick, entry] : ticked) out.push_back(std::move(entry));
  return out;
}

void SemanticCache::Clear() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->entries.clear();
  impl_->bytes_in_use = 0;
  impl_->entry_count = 0;
  auto& instruments = Instruments::Get();
  instruments.bytes_in_use.Set(0);
  instruments.entries.Set(0);
}

void SemanticCache::set_capacity_bytes(int64_t bytes) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->capacity_bytes = bytes;
  impl_->EvictLocked();
}

int64_t SemanticCache::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->capacity_bytes;
}

SemanticCacheStats SemanticCache::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  SemanticCacheStats out = impl_->stats;
  out.bytes_in_use = impl_->bytes_in_use;
  out.entries = impl_->entry_count;
  return out;
}

}  // namespace visualroad::queries
