#include "obs/metrics.h"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "obs/json.h"

namespace smart::obs {

std::atomic<bool> g_metrics_on{false};

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

FixedHistogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<FixedHistogram>(std::move(bounds));
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
    for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
    for (const auto& [name, h] : histograms_) {
      MetricsSnapshot::Histogram hs;
      hs.name = name;
      hs.bounds = h->bounds();
      hs.buckets.resize(h->num_buckets());
      for (std::size_t i = 0; i < h->num_buckets(); ++i) hs.buckets[i] = h->bucket(i);
      hs.count = h->count();
      hs.sum = h->sum();
      snap.histograms.push_back(std::move(hs));
    }
  }
  // The BufferPool keeps its own process-wide relaxed counters (it lives
  // below the obs layer and is always on); bridge them into the snapshot
  // here so --metrics-out shows allocator churn.  Only the global registry
  // reports them — per-rank registries merged by obs::gather would
  // otherwise multiply the process totals by the rank count.
  if (this == &global()) {
    const BufferPool::Totals pool = BufferPool::totals();
    snap.counters["bufferpool.hits"] = static_cast<std::int64_t>(pool.hits);
    snap.counters["bufferpool.misses"] = static_cast<std::int64_t>(pool.misses);
    snap.counters["bufferpool.releases_pooled"] =
        static_cast<std::int64_t>(pool.releases_pooled);
    snap.counters["bufferpool.releases_dropped"] =
        static_cast<std::int64_t>(pool.releases_dropped);
    snap.counters["bufferpool.bytes_recycled"] =
        static_cast<std::int64_t>(pool.bytes_recycled);
    snap.counters["bufferpool.resize"] = static_cast<std::int64_t>(pool.resizes);
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

double MetricsSnapshot::Histogram::percentile(double q) const {
  if (count == 0 || buckets.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket <= 0.0 || cum + in_bucket < target) {
      cum += in_bucket;
      continue;
    }
    if (i >= bounds.size()) break;  // overflow bucket: clamp below
    const double lo = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
    const double hi = bounds[i];
    return lo + (hi - lo) * ((target - cum) / in_bucket);
  }
  // Overflow (or rounding past the end): the last finite boundary is the
  // tightest honest answer.
  return bounds.empty() ? 0.0 : bounds.back();
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) {
    auto [it, inserted] = gauges.emplace(name, v);
    if (!inserted) it->second = std::max(it->second, v);
  }
  for (const Histogram& oh : other.histograms) {
    auto it = std::find_if(histograms.begin(), histograms.end(), [&](const Histogram& h) {
      return h.name == oh.name && h.bounds == oh.bounds;
    });
    if (it == histograms.end()) {
      histograms.push_back(oh);
      continue;
    }
    for (std::size_t i = 0; i < it->buckets.size() && i < oh.buckets.size(); ++i) {
      it->buckets[i] += oh.buckets[i];
    }
    it->count += oh.count;
    it->sum += oh.sum;
  }
  ranks_merged += other.ranks_merged;
  missing_ranks.insert(missing_ranks.end(), other.missing_ranks.begin(),
                       other.missing_ranks.end());
}

void MetricsSnapshot::dump_json(std::ostream& os) const {
  os << "{\n  \"ranks_merged\": " << ranks_merged << ",\n  \"missing_ranks\": [";
  for (std::size_t i = 0; i < missing_ranks.size(); ++i) {
    if (i > 0) os << ", ";
    os << missing_ranks[i];
  }
  os << "],\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": " << v;
  }
  os << (counters.empty() ? "},\n" : "\n  },\n");
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    os << ": " << buf;
  }
  os << (gauges.empty() ? "},\n" : "\n  },\n");
  os << "  \"histograms\": {";
  first = true;
  for (const Histogram& h : histograms) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, h.name);
    os << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) os << ", ";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", h.bounds[i]);
      os << buf;
    }
    os << "], \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) os << ", ";
      os << h.buckets[i];
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", h.sum);
    os << "], \"count\": " << h.count << ", \"sum\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.6g", h.percentile(0.50));
    os << ", \"p50\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.6g", h.percentile(0.90));
    os << ", \"p90\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.6g", h.percentile(0.99));
    os << ", \"p99\": " << buf << "}";
  }
  os << (histograms.empty() ? "}\n" : "\n  }\n");
  os << "}\n";
}

void MetricsSnapshot::dump_text(std::ostream& os) const {
  os << "metrics (ranks merged: " << ranks_merged;
  if (!missing_ranks.empty()) {
    os << "; missing:";
    for (const int r : missing_ranks) os << ' ' << r;
  }
  os << ")\n";
  for (const auto& [name, v] : counters) {
    os << "  counter " << std::left << std::setw(32) << name << ' ' << v << '\n';
  }
  for (const auto& [name, v] : gauges) {
    os << "  gauge   " << std::left << std::setw(32) << name << ' ' << v << '\n';
  }
  for (const Histogram& h : histograms) {
    os << "  hist    " << std::left << std::setw(32) << h.name << " count=" << h.count
       << " sum=" << h.sum << " p50=" << h.percentile(0.50) << " p90=" << h.percentile(0.90)
       << " p99=" << h.percentile(0.99) << " buckets=[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) os << ' ';
      os << h.buckets[i];
    }
    os << "]\n";
  }
}

void MetricsSnapshot::serialize(Writer& w) const {
  w.write<std::int32_t>(ranks_merged);
  w.write<std::uint64_t>(missing_ranks.size());
  for (const int r : missing_ranks) w.write<std::int32_t>(r);
  w.write<std::uint64_t>(counters.size());
  for (const auto& [name, v] : counters) {
    w.write_string(name);
    w.write<std::int64_t>(v);
  }
  w.write<std::uint64_t>(gauges.size());
  for (const auto& [name, v] : gauges) {
    w.write_string(name);
    w.write<double>(v);
  }
  w.write<std::uint64_t>(histograms.size());
  for (const Histogram& h : histograms) {
    w.write_string(h.name);
    w.write_vector(h.bounds);
    w.write_vector(h.buckets);
    w.write<std::uint64_t>(h.count);
    w.write<double>(h.sum);
  }
}

MetricsSnapshot MetricsSnapshot::deserialize(Reader& r) {
  MetricsSnapshot snap;
  snap.ranks_merged = r.read<std::int32_t>();
  const auto nmiss = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < nmiss; ++i) snap.missing_ranks.push_back(r.read<std::int32_t>());
  const auto nc = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < nc; ++i) {
    std::string name = r.read_string();
    snap.counters[std::move(name)] = r.read<std::int64_t>();
  }
  const auto ng = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < ng; ++i) {
    std::string name = r.read_string();
    snap.gauges[std::move(name)] = r.read<double>();
  }
  const auto nh = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < nh; ++i) {
    Histogram h;
    h.name = r.read_string();
    h.bounds = r.read_vector<double>();
    h.buckets = r.read_vector<std::uint64_t>();
    h.count = r.read<std::uint64_t>();
    h.sum = r.read<double>();
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

}  // namespace smart::obs
