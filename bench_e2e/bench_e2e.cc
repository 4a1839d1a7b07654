// bench_e2e: xsp requests over a stored database, read-only and beside
// commits, timed end to end and layer by layer.
//
//   bench_e2e --workload probe_range|carrier_scan|read_under_write
//             --seed N --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//
// One process. It builds a seeded database through SetStore, runs the
// workload's requests for S seconds, checks every result against the
// generator's formula (model.h, no libxst), and prints one line per metric
// followed by a JSON line {"correct", "attempted", "failed", "metrics"}
// holding every metric it measured. bench_e2e/run.py builds this program
// and selects the metrics BENCHMARK.json names. See bench_e2e/README.md for
// the workloads, the metrics and the layer each one belongs to.
//
// Every query takes the whole read pipeline: ParsePlan → Optimize →
// Compile → an explicit Verify → VmEval over a StoreCursorSource (behind
// MeasuredSource). XST_VERIFY_PROGRAMS is unset, so VmEval does not verify
// a second time, and XST_NUM_THREADS is fixed to 1 (kernels run inline on
// the client thread).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_e2e/model.h"
#include "bench_e2e/seams.h"
#include "bench_e2e/spans.h"
#include "src/core/xset.h"
#include "src/obs/metrics.h"
#include "src/store/codec.h"
#include "src/store/cursor.h"
#include "src/store/setstore.h"
#include "src/xsp/compile.h"
#include "src/xsp/optimizer.h"
#include "src/xsp/parser.h"
#include "src/xsp/verify.h"
#include "src/xsp/vm.h"

#ifndef XST_BENCH_BUILD_TYPE
#define XST_BENCH_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

using xst::Membership;
using xst::Result;
using xst::SetStore;
using xst::Status;
using xst::XSet;
namespace xsp = xst::xsp;

// -- Configuration -----------------------------------------------------------

enum class Workload { kProbeRange, kCarrierScan, kReadUnderWrite };

constexpr int kRelations = 16;  // read relations t<r> (and b<r>)
constexpr int kFanout = 8;      // values per key

struct Config {
  Workload workload = Workload::kProbeRange;
  int64_t keys = 512;
  bool blobs = false;  ///< also store every relation with Put (blob layout)
  size_t pool_pages = 2048;
  bool concurrent_writer = false;
};

bool ConfigFor(const std::string& name, Config* cfg) {
  if (name == "probe_range") {
    *cfg = Config{Workload::kProbeRange, 512, false, 2048, false};
  } else if (name == "carrier_scan") {
    *cfg = Config{Workload::kCarrierScan, 1024, true, 64, false};
  } else if (name == "read_under_write") {
    *cfg = Config{Workload::kReadUnderWrite, 512, false, 2048, true};
  } else {
    return false;
  }
  return true;
}

constexpr int kSetups = 9;
constexpr double kWarmupSeconds = 1.0;
// Open-loop commit rates. Beside the reader, 1000 commits/s ran the writer
// near its capacity on a 4-CPU machine (commit p50 0.45-1.75 ms and reads
// 1.5k-2.7k/s across seeds); 250/s keeps it well below and repeats.
constexpr double kCommitRate = 250.0;
// The write phase after the reads of a read-only workload, with no reader.
constexpr double kQuietCommitRate = 500.0;
constexpr int kQuietCommits = 2000;
constexpr int kPutEvery = 50;           // every kPutEvery-th commit replaces a small blob
constexpr int kSmallBlobs = 4;
constexpr int kWriterRelations = 16;
constexpr int64_t kWriterKeys = 512;
constexpr int kSmallBlobMembers = 32;
// Beside a concurrent writer, the reader runs one stale-cursor probe after
// every kProbeEvery rounds of its read mix, over the key indices
// [kProbeLo, kProbeLo + kRangeKeys) of the probe's set.
constexpr int kProbeEvery = 256;
constexpr int64_t kProbeLo = 256;
constexpr const char* kProbeSet = "p0";
constexpr uint64_t kSpinNs = 200'000;   // the writer spins, not sleeps, this close to a due time
constexpr size_t kKeepSpans = 100'000;  // per thread, for the Chrome trace file

std::string TreeName(int r) { return "t" + std::to_string(r); }
std::string BlobName(int r) { return "b" + std::to_string(r); }
std::string WriterName(int r) { return "u" + std::to_string(r); }
std::string SmallName(int i) { return "w" + std::to_string(i); }

XSet PairXSet(const Pair& p) { return XSet::Pair(XSet::Int(p.first), XSet::Int(p.second)); }

XSet PairSet(const std::vector<Pair>& pairs) {
  std::vector<Membership> ms;
  ms.reserve(pairs.size());
  for (const Pair& p : pairs) ms.push_back(xst::M(PairXSet(p)));
  return XSet::FromMembers(std::move(ms));
}

/// Encoded bytes of one membership as a commit stores it: its element
/// followed by its scope.
uint64_t MemberBytes(const Membership& m) {
  return xst::EncodeXSetToString(m.element).size() + xst::EncodeXSetToString(m.scope).size();
}

std::vector<Pair> SmallBlob(Rng& rng) {
  std::set<Pair> out;
  while (out.size() < static_cast<size_t>(kSmallBlobMembers)) {
    out.emplace(rng.Below(1000), 5 * kLayerStride + rng.Below(1000));
  }
  return std::vector<Pair>(out.begin(), out.end());
}

// -- Results as plain containers ---------------------------------------------

/// <a, b> with a classical scope → (a, b); false on any other shape.
bool DecodePair(const Membership& m, Pair* out) {
  if (!m.scope.empty() || !m.element.is_set() || m.element.cardinality() != 2) return false;
  int64_t parts[2] = {0, 0};
  bool seen[2] = {false, false};
  for (const Membership& c : m.element.members()) {
    if (!c.element.is_int() || !c.scope.is_int()) return false;
    const int64_t pos = c.scope.int_value();
    if (pos != 1 && pos != 2) return false;
    parts[pos - 1] = c.element.int_value();
    seen[pos - 1] = true;
  }
  if (!seen[0] || !seen[1]) return false;
  *out = {parts[0], parts[1]};
  return true;
}

/// {<a, b>, ...} with classical scopes → sorted pairs; false on any other shape.
bool DecodePairs(const XSet& s, std::vector<Pair>* out) {
  out->clear();
  if (!s.is_set()) return false;
  for (const Membership& m : s.members()) {
    Pair p;
    if (!DecodePair(m, &p)) return false;
    out->push_back(p);
  }
  if (!std::is_sorted(out->begin(), out->end())) std::sort(out->begin(), out->end());
  return true;
}

/// {<v>, ...} → sorted values.
bool DecodeValues(const XSet& s, std::vector<int64_t>* out) {
  out->clear();
  if (!s.is_set()) return false;
  for (const Membership& m : s.members()) {
    if (!m.scope.empty() || !m.element.is_set() || m.element.cardinality() != 1) return false;
    const Membership& c = m.element.members()[0];
    if (!c.element.is_int() || !c.scope.is_int() || c.scope.int_value() != 1) return false;
    out->push_back(c.element.int_value());
  }
  if (!std::is_sorted(out->begin(), out->end())) std::sort(out->begin(), out->end());
  return true;
}

// -- Data --------------------------------------------------------------------

/// The relation of the stale-cursor probe: the same for every seed.
RelationSpec ProbeRelation() {
  RelationSpec r;
  r.keys = kWriterKeys;
  r.fanout = kFanout;
  return r;
}

/// The relations the reader queries (t<r>, and b<r> when blobs are on),
/// the writer's own relations (u<r>), the small blob sets (w<i>) the
/// writer replaces, and, beside a concurrent writer, the probe's relation.
/// The reader's queries never touch what the writer commits to; the probe
/// commits to the set it reads (StaleCursorProbe).
struct Dataset {
  std::vector<RelationSpec> rels;
  std::vector<std::vector<Pair>> members;   // per relation, sorted
  std::vector<RelationSpec> wrels;
  std::vector<std::vector<Pair>> wmembers;  // per writer relation, sorted
  std::vector<std::vector<Pair>> small;     // initial small blob contents
  std::vector<Pair> probe;                  // the probe's relation; empty without one

  static Dataset Make(const Config& cfg, uint64_t seed) {
    Dataset d;
    d.rels = MakeRelations(seed, kRelations, cfg.keys, kFanout);
    for (const RelationSpec& r : d.rels) d.members.push_back(r.Members());
    d.wrels = MakeRelations(seed ^ 0xC0FFEEull, kWriterRelations, kWriterKeys, kFanout);
    for (const RelationSpec& r : d.wrels) d.wmembers.push_back(r.Members());
    Rng rng(seed ^ 0xB10Bull);
    for (int i = 0; i < kSmallBlobs; ++i) d.small.push_back(SmallBlob(rng));
    if (cfg.concurrent_writer) d.probe = ProbeRelation().Members();
    return d;
  }
};

// -- Queries -----------------------------------------------------------------

struct Query {
  const char* kind = "";
  std::string text;
  bool pairs = true;  // result shape: pairs <k, v> or values <v>
  std::vector<Pair> expect_pairs;
  std::vector<int64_t> expect_values;
};

bool Check(const Query& q, const XSet& result, std::string* why) {
  if (q.pairs) {
    std::vector<Pair> got;
    if (!DecodePairs(result, &got)) {
      *why = "result is not a set of integer pairs";
      return false;
    }
    return SameMembers(got, q.expect_pairs, why);
  }
  std::vector<int64_t> got;
  if (!DecodeValues(result, &got)) {
    *why = "result is not a set of integer 1-tuples";
    return false;
  }
  return SameMembers(got, q.expect_values, why);
}

std::string PairText(int64_t a, int64_t b) {
  return "<" + std::to_string(a) + ", " + std::to_string(b) + ">";
}

std::string ProbeText(const std::vector<int64_t>& keys) {
  std::string s = "{";
  for (size_t i = 0; i < keys.size(); ++i) {
    s += (i ? ", <" : "<") + std::to_string(keys[i]) + ">";
  }
  return s + "}";
}

/// range[<klo, vmin>, <khi, top>](@t<r>): every member with key index in
/// [klo, khi], base or writer.
std::string KeyRangeText(const RelationSpec& r, int64_t klo, int64_t khi) {
  return "range[" + PairText(r.Key(klo), r.ValueBase()) + ", " + PairText(r.Key(khi), kRangeTop) +
         "](@" + TreeName(r.id) + ")";
}

/// The probe_range read mix (also read_under_write's reader). One round is
/// one query of each kind.
constexpr int kRangeRound = 4;
constexpr int64_t kRangeKeys = 8;  // keys per range read: 8 keys x fanout 8 = 64 members

Query MakeRangeQuery(int kind, const Dataset& d, Rng& rng) {
  Query q;
  const int nrel = static_cast<int>(d.rels.size());
  const int ri = static_cast<int>(rng.Below(nrel));
  const RelationSpec& r = d.rels[ri];
  switch (kind) {
    case 0: {  // single-element range over an existing member
      const int64_t ki = rng.Below(r.keys);
      const Pair m{r.Key(ki), r.Value(ki, static_cast<int>(rng.Below(r.fanout)))};
      q.kind = "point";
      q.text = "range[" + PairText(m.first, m.second) + ", " + PairText(m.first, m.second) +
               "](@" + TreeName(ri) + ")";
      q.expect_pairs = {m};
      break;
    }
    case 1: {  // short range, about 64 members
      const int64_t klo = rng.Below(r.keys - kRangeKeys + 1);
      const int64_t khi = klo + kRangeKeys - 1;
      q.kind = "range";
      q.text = KeyRangeText(r, klo, khi);
      q.expect_pairs = KeyRange(d.members[ri], r.Key(klo), r.Key(khi));
      break;
    }
    case 2: {  // union of ranges on two relations
      const int rj = static_cast<int>((ri + 1 + rng.Below(nrel - 1)) % nrel);
      const RelationSpec& s = d.rels[rj];
      const int64_t half = kRangeKeys / 2;
      const int64_t alo = rng.Below(r.keys - half + 1);
      const int64_t blo = rng.Below(s.keys - half + 1);
      q.kind = "union";
      q.text = "union(" + KeyRangeText(r, alo, alo + half - 1) + ", " +
               KeyRangeText(s, blo, blo + half - 1) + ")";
      std::vector<Pair> a = KeyRange(d.members[ri], r.Key(alo), r.Key(alo + half - 1));
      std::vector<Pair> b = KeyRange(d.members[rj], s.Key(blo), s.Key(blo + half - 1));
      std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(q.expect_pairs));
      break;
    }
    default: {  // image over a range slice: two probes inside, one anywhere
      const int64_t klo = rng.Below(r.keys - kRangeKeys + 1);
      const int64_t khi = klo + kRangeKeys - 1;
      const std::vector<int64_t> probe_idx = {klo + rng.Below(kRangeKeys),
                                              klo + rng.Below(kRangeKeys), rng.Below(r.keys)};
      std::vector<int64_t> probe_keys;
      for (int64_t ki : probe_idx) probe_keys.push_back(r.Key(ki));
      q.kind = "image_range";
      q.pairs = false;
      q.text = "image[<1>, <2>](" + KeyRangeText(r, klo, khi) + ", " + ProbeText(probe_keys) + ")";
      q.expect_values =
          ImageOf(KeyRange(d.members[ri], r.Key(klo), r.Key(khi)), probe_keys);
      break;
    }
  }
  return q;
}

/// The carrier_scan read mix: three query kinds, each once over blob names
/// and once over tree names.
constexpr int kCarrierRound = 6;

Query MakeCarrierQuery(int slot, const Dataset& d, Rng& rng) {
  Query q;
  const int kind = slot / 2;
  const bool blob = slot % 2 == 0;
  auto name = [&](int r) { return "@" + (blob ? BlobName(r) : TreeName(r)); };
  const int nrel = static_cast<int>(d.rels.size());
  switch (kind) {
    case 0: {  // image probe on one carrier
      const int ri = static_cast<int>(rng.Below(nrel));
      const RelationSpec& r = d.rels[ri];
      std::vector<int64_t> keys;
      for (int i = 0; i < 4; ++i) keys.push_back(r.Key(rng.Below(r.keys)));
      q.kind = blob ? "image_blob" : "image_tree";
      q.pairs = false;
      q.text = "image[<1>, <2>](" + name(ri) + ", " + ProbeText(keys) + ")";
      q.expect_values = ImageOf(d.members[ri], keys);
      break;
    }
    case 1: {  // two-hop image: an even relation's values are the next one's keys
      const int ri = 2 * static_cast<int>(rng.Below(nrel / 2));
      const RelationSpec& r = d.rels[ri];
      std::vector<int64_t> keys;
      for (int i = 0; i < 2; ++i) keys.push_back(r.Key(rng.Below(r.keys)));
      q.kind = blob ? "twohop_blob" : "twohop_tree";
      q.pairs = false;
      q.text = "image[<1>, <2>](" + name(ri + 1) + ", image[<1>, <2>](" + name(ri) + ", " +
               ProbeText(keys) + "))";
      q.expect_values = ImageOf(d.members[ri + 1], ImageOf(d.members[ri], keys));
      break;
    }
    default: {  // a boolean op over two whole carriers
      const int ri = static_cast<int>(rng.Below(nrel));
      const int rj = static_cast<int>((ri + 1 + rng.Below(nrel - 1)) % nrel);
      const std::vector<Pair>& a = d.members[ri];
      const std::vector<Pair>& b = d.members[rj];
      auto out = std::back_inserter(q.expect_pairs);
      const int64_t op = rng.Below(3);
      if (op == 0) {
        std::set_union(a.begin(), a.end(), b.begin(), b.end(), out);
      } else if (op == 1) {
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), out);
      } else {
        std::set_difference(a.begin(), a.end(), b.begin(), b.end(), out);
      }
      static constexpr const char* kOps[] = {"union", "intersect", "difference"};
      q.kind = blob ? "boolean_blob" : "boolean_tree";
      q.text = std::string(kOps[op]) + "(" + name(ri) + ", " + name(rj) + ")";
      break;
    }
  }
  return q;
}

// -- Store set-up ------------------------------------------------------------

xst::SetStoreOptions StoreOptions(const Config& cfg, FileCounters* counters) {
  xst::SetStoreOptions options;
  options.buffer_pool_pages = cfg.pool_pages;
  options.file_factory = CountingFileFactory(counters);
  return options;
}

/// Builds the database at `path` from the seed: every relation as a B+tree
/// (PutIndexed), also as a blob (Put) when the workload reads blobs, plus
/// the writer's relations and small blob sets. Ends with a checkpoint, so the
/// timed phase starts from a self-contained main file and an empty log.
Result<std::unique_ptr<SetStore>> BuildStore(const Config& cfg, uint64_t seed,
                                             const std::string& path, FileCounters* counters,
                                             Dataset* data) {
  *data = Dataset::Make(cfg, seed);
  Result<std::unique_ptr<SetStore>> opened = SetStore::Open(path, StoreOptions(cfg, counters));
  if (!opened.ok()) return opened.status();
  std::unique_ptr<SetStore> store = std::move(*opened);
  for (size_t r = 0; r < data->rels.size(); ++r) {
    const XSet rel = PairSet(data->members[r]);
    Status st = store->PutIndexed(TreeName(static_cast<int>(r)), rel);
    if (!st.ok()) return st;
    if (cfg.blobs) {
      st = store->Put(BlobName(static_cast<int>(r)), rel);
      if (!st.ok()) return st;
    }
  }
  for (size_t r = 0; r < data->wrels.size(); ++r) {
    Status st = store->PutIndexed(WriterName(static_cast<int>(r)), PairSet(data->wmembers[r]));
    if (!st.ok()) return st;
  }
  for (int i = 0; i < kSmallBlobs; ++i) {
    Status st = store->Put(SmallName(i), PairSet(data->small[i]));
    if (!st.ok()) return st;
  }
  if (!data->probe.empty()) {
    Status st = store->PutIndexed(kProbeSet, PairSet(data->probe));
    if (!st.ok()) return st;
  }
  Status st = store->Checkpoint();
  if (!st.ok()) return st;
  return store;
}

// -- Statistics helpers --------------------------------------------------------

double Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(v.size() - 1, static_cast<size_t>(p / 100.0 * v.size()));
  return static_cast<double>(v[idx]);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

/// CPU time of the calling thread. The writer's spin and sleep before a
/// due time are the benchmark's, not the program's, so CPU is summed per
/// thread over the program's calls only.
uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

uint64_t RegistryCounter(const char* name) {
  return xst::obs::MetricsRegistry::Global().GetCounter(name).value();
}

/// The registry counters the benchmark reads, snapshotted around a phase.
struct RegistrySnapshot {
  uint64_t latch_acquisitions = 0, latch_contention = 0, set_inserts = 0;
  uint64_t memo_hits = 0, memo_misses = 0;

  static RegistrySnapshot Take() {
    RegistrySnapshot s;
    s.latch_acquisitions = RegistryCounter("pager.latch.acquisitions");
    s.latch_contention = RegistryCounter("pager.latch.shard_contention");
    s.set_inserts = RegistryCounter("interner.set_inserts");
    s.memo_hits = RegistryCounter("rescope.memo.hits");
    s.memo_misses = RegistryCounter("rescope.memo.misses");
    return s;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// -- The writer ----------------------------------------------------------------

/// Open-loop writer: commit i is due at start + i / rate and is
/// issued then (or at once, if the writer runs late). Its latency counts
/// from the due time. Each commit inserts or erases one of the writer's
/// own members of a random u<r>, or (every kPutEvery-th) replaces a small
/// blob set; the writer keeps a std::set model of what was acknowledged.
class Writer {
 public:
  Writer(SetStore* store, const Dataset* data, uint64_t seed)
      : store_(store), data_(data), rng_(seed ^ 0x3717E5ull),
        present_(data->wrels.size()), small_(data->small) {}

  void Run(int commits, double rate, bool trace_alternate, Tracer* tracer,
           std::atomic<uint64_t>* req_ids) {
    const uint64_t period = static_cast<uint64_t>(1e9 / rate);
    const uint64_t start = NowNs() + 1'000'000;
    for (int i = 0; i < commits; ++i) {
      const uint64_t due = start + static_cast<uint64_t>(i) * period;
      uint64_t now = NowNs();
      if (now + kSpinNs < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
      }
      while ((now = NowNs()) < due) {
      }
      const bool traced = trace_alternate && (i % 2 == 1);
      if (traced) {
        tl_tracer = tracer;
        tracer->BeginRequest("commit", req_ids->fetch_add(1) + 1);
      }
      const uint64_t cpu0 = ThreadCpuNs();
      Status st = CommitOne(i);
      cpu_ns_ += ThreadCpuNs() - cpu0;
      if (traced) {
        tracer->EndRequest();
        tl_tracer = nullptr;
      }
      const uint64_t end = NowNs();
      latency_ns_.push_back(end - due);
      lag_ns_.push_back(now - due);
      call_ns_.push_back(end - now);
      ++attempted_;
      if (!st.ok()) {
        if (failed_++ == 0) first_error_ = st.ToString();
      }
    }
  }

  const std::vector<uint64_t>& latency_ns() const { return latency_ns_; }
  const std::vector<uint64_t>& lag_ns() const { return lag_ns_; }
  const std::vector<uint64_t>& call_ns() const { return call_ns_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::string& first_error() const { return first_error_; }
  uint64_t user_bytes() const { return user_bytes_; }
  /// CPU time spent inside commit calls.
  uint64_t cpu_ns() const { return cpu_ns_; }
  /// Writer members of u<r> that the store acknowledged and holds.
  const std::set<Pair>& present(int r) const { return present_[r]; }
  const std::vector<Pair>& small(int i) const { return small_[i]; }

 private:
  Status CommitOne(int i) {
    ScopedSpan span("store.commit");
    if (i % kPutEvery == kPutEvery - 1) {
      const int b = (i / kPutEvery) % kSmallBlobs;
      std::vector<Pair> next = SmallBlob(rng_);
      const XSet value = PairSet(next);
      Status st = store_->Put(SmallName(b), value);
      if (st.ok()) {
        small_[b] = std::move(next);
        user_bytes_ += xst::EncodeXSetToString(value).size();
      }
      return st;
    }
    const int ri = static_cast<int>(rng_.Below(static_cast<int64_t>(present_.size())));
    const RelationSpec& r = data_->wrels[ri];
    std::set<Pair>& mine = present_[ri];
    const bool erase = !mine.empty() && rng_.Below(2) == 0;
    Pair m;
    if (erase) {
      auto it = mine.begin();
      std::advance(it, rng_.Below(static_cast<int64_t>(mine.size())));
      m = *it;
    } else {
      const int64_t ki = rng_.Below(r.keys);
      m = {r.Key(ki), WriterValue(ri, ki, rng_.Below(kWriterSlots))};
    }
    const Membership mem = xst::M(PairXSet(m));
    Status st = erase ? store_->EraseMember(WriterName(ri), mem)
                      : store_->InsertMember(WriterName(ri), mem);
    if (st.ok()) {
      if (erase) {
        mine.erase(m);
      } else {
        mine.insert(m);
      }
      user_bytes_ += MemberBytes(mem);
    }
    return st;
  }

  SetStore* store_;
  const Dataset* data_;
  Rng rng_;
  std::vector<std::set<Pair>> present_;
  std::vector<std::vector<Pair>> small_;
  std::vector<uint64_t> latency_ns_, lag_ns_, call_ns_;
  uint64_t attempted_ = 0, failed_ = 0, user_bytes_ = 0, cpu_ns_ = 0;
  std::string first_error_;
};

// -- The stale-cursor probe ------------------------------------------------------

/// A B+tree range read with a commit to the same tree between the cursor's
/// open and its first batch. A writer committing to the sets being read
/// produces this interleaving now and then; the probe forces it on every
/// call, on a set that is the same for every seed. The commit inserts a
/// writer member just below the range's lower edge, so the read must hold
/// exactly the base members in range (BaseAndSubset with no writer member
/// in range). The member is erased again afterwards, so every probe starts
/// from the same set. A probe that errs or reads a wrong result is a failed
/// operation.
class StaleCursorProbe {
 public:
  explicit StaleCursorProbe(SetStore* store) : store_(store) {
    const RelationSpec r = ProbeRelation();
    const int64_t khi = kProbeLo + kRangeKeys - 1;
    base_ = KeyRange(r.Members(), r.Key(kProbeLo), r.Key(khi));
    lo_ = PairXSet({r.Key(kProbeLo), r.ValueBase()});
    hi_ = PairXSet({r.Key(khi), kRangeTop});
    extra_ = xst::M(PairXSet({r.Key(kProbeLo - 1), WriterValue(kWriterRelations, kProbeLo - 1, 0)}));
  }

  /// False, with *why set, when the probe failed.
  bool Run(std::string* why) {
    Result<std::unique_ptr<xst::MemberCursor>> cursor =
        store_->OpenElementRange(kProbeSet, lo_, hi_);
    if (!cursor.ok()) {
      *why = "open: " + cursor.status().ToString();
      return false;
    }
    if (Status st = Commit(false); !st.ok()) {
      *why = "insert: " + st.ToString();
      return false;
    }
    std::vector<Pair> got;
    bool shape_ok = true;
    for (std::span<const Membership> batch = (*cursor)->NextBatch(); !batch.empty();
         batch = (*cursor)->NextBatch()) {
      for (const Membership& m : batch) {
        Pair p;
        if (DecodePair(m, &p)) {
          got.push_back(p);
        } else {
          shape_ok = false;
        }
      }
    }
    const Status read = (*cursor)->status();
    if (Status st = Commit(true); !st.ok()) {
      *why = "erase: " + st.ToString();
      return false;
    }
    if (!read.ok()) {
      *why = "read: " + read.ToString();
      return false;
    }
    if (!shape_ok) {
      *why = "a member is not an integer pair";
      return false;
    }
    return BaseAndSubset(std::move(got), base_, {}, why);
  }

  /// Commits acknowledged, and the encoded bytes of their user changes.
  uint64_t commits() const { return commits_; }
  uint64_t user_bytes() const { return user_bytes_; }

 private:
  Status Commit(bool erase) {
    Status st = erase ? store_->EraseMember(kProbeSet, extra_) : store_->InsertMember(kProbeSet, extra_);
    if (st.ok()) {
      ++commits_;
      user_bytes_ += MemberBytes(extra_);
    }
    return st;
  }

  SetStore* store_;
  std::vector<Pair> base_;
  XSet lo_, hi_;
  Membership extra_;
  uint64_t commits_ = 0, user_bytes_ = 0;
};

// -- The reader ----------------------------------------------------------------

struct ReaderStats {
  std::vector<uint64_t> untraced_ns;  // request latencies, untraced requests
  std::vector<uint64_t> traced_ns;    // request latencies, traced requests
  uint64_t attempted = 0, failed = 0, mismatches = 0, result_rows = 0;
  std::string first_error, first_mismatch;
  // Stale-cursor probes: count, failures, and their wall and CPU time,
  // which query_rps and cpu_us_per_op leave out.
  uint64_t probes = 0, probe_failed = 0, probe_ns = 0, probe_cpu_ns = 0;
  std::string first_probe_failure;
};

class Reader {
 public:
  /// `probe` is null, or runs after every kProbeEvery rounds of the mix.
  Reader(const Config& cfg, const Dataset* data, MeasuredSource* source, uint64_t seed,
         StaleCursorProbe* probe)
      : cfg_(cfg), data_(data), source_(source), rng_(seed ^ 0x8EADull), probe_(probe) {}

  /// Runs whole rounds until `deadline_ns`: one round is one query of each
  /// kind of the mix, or, with a probe, kProbeEvery such rounds and then
  /// the probe. With `trace_alternate`, every other round of the mix is
  /// traced (spans + VmObserver) and the rest are not, so the two latency
  /// samples give the tracing overhead. Probes are never traced.
  void Run(uint64_t deadline_ns, bool trace_alternate, Tracer* tracer,
           std::atomic<uint64_t>* req_ids, ReaderStats* out) {
    const int round = cfg_.workload == Workload::kCarrierScan ? kCarrierRound : kRangeRound;
    const int mixes = probe_ != nullptr ? kProbeEvery : 1;
    for (uint64_t n = 0; NowNs() < deadline_ns;) {
      for (int i = 0; i < mixes; ++i, ++n) {
        const bool traced = trace_alternate && (n % 2 == 1);
        for (int slot = 0; slot < round; ++slot) {
          const Query q = cfg_.workload == Workload::kCarrierScan
                              ? MakeCarrierQuery(slot, *data_, rng_)
                              : MakeRangeQuery(slot, *data_, rng_);
          RunOne(q, traced, tracer, req_ids, out);
        }
      }
      if (probe_ != nullptr) RunProbe(out);
    }
  }

  const xsp::VmStats& vm_stats() const { return vm_stats_; }
  const OpcodeObserver& observer() const { return observer_; }

 private:
  void RunOne(const Query& q, bool traced, Tracer* tracer, std::atomic<uint64_t>* req_ids,
              ReaderStats* out) {
    const uint64_t t0 = NowNs();
    if (traced) {
      tl_tracer = tracer;
      tracer->BeginRequest("request", req_ids->fetch_add(1) + 1);
    }
    Result<XSet> result = Execute(q.text, traced ? &observer_ : nullptr);
    bool match = true;
    std::string why;
    if (result.ok()) {
      ScopedSpan span("check");
      match = Check(q, *result, &why);
    }
    if (traced) {
      tracer->EndRequest();
      tl_tracer = nullptr;
    }
    const uint64_t t1 = NowNs();
    (traced ? out->traced_ns : out->untraced_ns).push_back(t1 - t0);
    ++out->attempted;
    if (!result.ok()) {
      if (out->failed++ == 0) out->first_error = std::string(q.kind) + ": " + result.status().ToString();
      return;
    }
    out->result_rows += result->cardinality();
    if (!match && out->mismatches++ == 0) {
      out->first_mismatch = std::string(q.kind) + ": " + why + " for " + q.text;
    }
  }

  void RunProbe(ReaderStats* out) {
    const uint64_t t0 = NowNs(), cpu0 = ThreadCpuNs();
    std::string why;
    const bool ok = probe_->Run(&why);
    out->probe_cpu_ns += ThreadCpuNs() - cpu0;
    out->probe_ns += NowNs() - t0;
    ++out->probes;
    if (!ok && out->probe_failed++ == 0) out->first_probe_failure = why;
  }

  Result<XSet> Execute(const std::string& text, OpcodeObserver* observer) {
    Result<xsp::ExprPtr> plan = Status::Invalid("unset");
    {
      ScopedSpan span("xsp.parse");
      plan = xsp::ParsePlan(text);
    }
    if (!plan.ok()) return plan.status();
    Result<xsp::ExprPtr> optimized = Status::Invalid("unset");
    {
      ScopedSpan span("xsp.optimize");
      optimized = xsp::Optimize(*plan, no_bindings_);
    }
    if (!optimized.ok()) return optimized.status();
    Result<xsp::Program> program = Status::Invalid("unset");
    {
      ScopedSpan span("xsp.compile");
      program = xsp::Compile(*optimized);
    }
    if (!program.ok()) return program.status();
    Result<xsp::VerifiedProgram> verified = Status::Invalid("unset");
    {
      ScopedSpan span("xsp.verify");
      verified = xsp::Verify(std::move(*program));
    }
    if (!verified.ok()) return verified.status();
    ScopedSpan span("xsp.vm");
    return xsp::VmEval(verified->program(), *source_, &ctx_, &vm_stats_, observer);
  }

  Config cfg_;
  const Dataset* data_;
  MeasuredSource* source_;
  Rng rng_;
  StaleCursorProbe* probe_;
  // Named leaves resolve through the store at execution time, so the
  // optimizer sees no bindings (and R2 never composes stored relations).
  const xsp::Bindings no_bindings_;
  xsp::VmContext ctx_;  // one per client, reused across its queries
  xsp::VmStats vm_stats_;
  OpcodeObserver observer_;
};

// -- Checker self-test ---------------------------------------------------------

/// The checker must reject a result with one member dropped and one added.
bool CheckerSelfTest(const Dataset& d, std::string* detail) {
  Query q;
  q.kind = "selftest";
  const RelationSpec& r = d.rels[0];
  q.expect_pairs = KeyRange(d.members[0], r.Key(0), r.Key(kRangeKeys - 1));
  std::string why;
  if (!Check(q, PairSet(q.expect_pairs), &why)) {
    *detail = "checker rejects the true result: " + why;
    return false;
  }
  std::vector<Pair> corrupted = q.expect_pairs;
  corrupted.erase(corrupted.begin() + static_cast<long>(corrupted.size() / 2));
  corrupted.emplace_back(r.Key(kRangeKeys + 1), r.ValueBase());
  if (Check(q, PairSet(corrupted), &why)) {
    *detail = "checker accepts a result with one member dropped and one added";
    return false;
  }
  *detail = "checker rejects a result with one member dropped and one added (" + why + ")";
  return true;
}

// -- Final verification --------------------------------------------------------

/// Reopens the store, scrubs it, and compares every set with its model:
/// base members plus the writer's acknowledged history.
bool VerifyReopened(const Config& cfg, const std::string& path, FileCounters* counters,
                    const Dataset& d, const Writer& w, std::string* detail) {
  Result<std::unique_ptr<SetStore>> opened = SetStore::Open(path, StoreOptions(cfg, counters));
  if (!opened.ok()) {
    *detail = "reopen failed: " + opened.status().ToString();
    return false;
  }
  SetStore& store = **opened;
  const size_t expected_sets = d.rels.size() * (cfg.blobs ? 2 : 1) + d.wrels.size() + kSmallBlobs +
                               (d.probe.empty() ? 0 : 1);
  Result<size_t> scrubbed = store.Scrub();
  if (!scrubbed.ok() || *scrubbed != expected_sets) {
    *detail = "scrub: " + (scrubbed.ok() ? std::to_string(*scrubbed) + " sets, expected " +
                                               std::to_string(expected_sets)
                                         : scrubbed.status().ToString());
    return false;
  }
  auto same = [&](const std::string& name, const std::vector<Pair>& model) {
    Result<XSet> got = store.Get(name);
    std::vector<Pair> pairs;
    if (!got.ok() || !DecodePairs(*got, &pairs) || pairs != model) {
      *detail = name + " differs from its model after reopen";
      return false;
    }
    return true;
  };
  for (size_t r = 0; r < d.rels.size(); ++r) {
    if (!same(TreeName(static_cast<int>(r)), d.members[r])) return false;
    if (cfg.blobs && !same(BlobName(static_cast<int>(r)), d.members[r])) return false;
  }
  for (size_t r = 0; r < d.wrels.size(); ++r) {
    std::vector<Pair> model = d.wmembers[r];
    const std::set<Pair>& mine = w.present(static_cast<int>(r));
    model.insert(model.end(), mine.begin(), mine.end());
    std::sort(model.begin(), model.end());
    if (!same(WriterName(static_cast<int>(r)), model)) return false;
  }
  for (int i = 0; i < kSmallBlobs; ++i) {
    if (!same(SmallName(i), w.small(i))) return false;
  }
  if (!d.probe.empty() && !same(kProbeSet, d.probe)) return false;
  *detail = "reopened store scrubbed (" + std::to_string(*scrubbed) +
            " sets) and equal to the model of its acknowledged history";
  return true;
}

// -- Output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetric(const Metric& m) {
  std::printf("metric %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->workdir.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

int Main(int argc, char** argv) {
  // Fixed before libxst reads them: kernels run inline on the client
  // thread, and VmEval does not verify again after the explicit Verify.
  setenv("XST_NUM_THREADS", "1", 1);
  unsetenv("XST_VERIFY_PROGRAMS");

  Args args;
  Config cfg;
  if (!ParseArgs(argc, argv, &args) || !ConfigFor(args.workload, &cfg)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload probe_range|carrier_scan|read_under_write "
                 "--seed N --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]\n");
    return 2;
  }
  const bool tracing = args.trace == 1;
  std::printf("bench_e2e workload=%s seed=%" PRIu64 " seconds=%g trace=%d build=%s cpus=%d "
              "XST_NUM_THREADS=%s\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace, XST_BENCH_BUILD_TYPE,
              CpuCount(), std::getenv("XST_NUM_THREADS"));

  bool correct = true;
  std::vector<Metric> metrics;
  auto emit = [&](const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  };

  // Set-up, several times; the last database is the one the run uses.
  FileCounters counters;
  std::vector<double> setup_s;
  std::unique_ptr<SetStore> store;
  Dataset data;
  std::string path;
  for (int i = 0; i < kSetups; ++i) {
    const std::string dir = args.workdir + "/setup" + std::to_string(i);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(), ec.message().c_str());
      return 1;
    }
    store.reset();
    if (!path.empty()) std::filesystem::remove_all(std::filesystem::path(path).parent_path(), ec);
    path = dir + "/db.xst";
    const uint64_t t0 = NowNs();
    Result<std::unique_ptr<SetStore>> built = BuildStore(cfg, args.seed, path, &counters, &data);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", built.status().ToString().c_str());
      return 1;
    }
    store = std::move(*built);
  }
  emit("setup_s", Median(setup_s), "s");
  std::printf("set-up times (s):");
  for (double t : setup_s) std::printf(" %.4f", t);
  std::printf("\n");
  std::printf("database: %d relations x %" PRId64 " keys x %d values%s, %u pages; buffer pool %zu pages\n",
              kRelations, cfg.keys, kFanout, cfg.blobs ? ", stored as blob and as tree" : " (tree)",
              store->page_count(), cfg.pool_pages);

  std::string detail;
  if (!CheckerSelfTest(data, &detail)) correct = false;
  std::printf("self-test: %s\n", detail.c_str());

  std::map<std::string, Access> modes;
  for (const std::string& name : store->List()) {
    Result<xst::StorageMode> mode = store->ModeOf(name);
    if (!mode.ok()) {
      std::fprintf(stderr, "ModeOf(%s): %s\n", name.c_str(), mode.status().ToString().c_str());
      return 1;
    }
    modes[name] = *mode == xst::StorageMode::kBlob ? Access::kBlob : Access::kTree;
  }
  MeasuredSource source(*store, std::move(modes));
  std::unique_ptr<StaleCursorProbe> probe;
  if (!data.probe.empty()) probe = std::make_unique<StaleCursorProbe>(store.get());
  Reader reader(cfg, &data, &source, args.seed, probe.get());
  Writer writer(store.get(), &data, args.seed);
  Tracer reader_tracer(1, kKeepSpans), writer_tracer(2, kKeepSpans);
  std::atomic<uint64_t> req_ids{0};
  ReaderStats rs;

  // Warm-up: caches fill and per-carrier index paths are built before timing.
  reader.Run(NowNs() + static_cast<uint64_t>(kWarmupSeconds * 1e9), false, nullptr, &req_ids, &rs);
  rs.untraced_ns.clear();
  const uint64_t warm_queries = rs.attempted;

  // The timed phase.
  const xst::PagerStats pager0 = store->pager_stats();
  const RegistrySnapshot reg0 = RegistrySnapshot::Take();
  const FileSnapshot files0 = FileSnapshot::Of(counters);
  const uint64_t rows0 = source.rows();
  const uint64_t rows_result0 = rs.result_rows;
  const uint64_t segment0 = store->wal_stats().segment;
  const uint64_t probe_ns0 = rs.probe_ns, probe_cpu0 = rs.probe_cpu_ns;
  const uint64_t probe_commits0 = probe ? probe->commits() : 0;
  const uint64_t probe_bytes0 = probe ? probe->user_bytes() : 0;
  const uint64_t reader_cpu0 = ThreadCpuNs();
  const uint64_t t0 = NowNs();
  const int commits = cfg.concurrent_writer
                          ? static_cast<int>(kCommitRate * args.seconds)
                          : kQuietCommits;
  std::thread writer_thread;
  if (cfg.concurrent_writer) {
    writer_thread = std::thread([&] { writer.Run(commits, kCommitRate, tracing, &writer_tracer, &req_ids); });
  }
  reader.Run(t0 + static_cast<uint64_t>(args.seconds * 1e9), tracing, &reader_tracer, &req_ids, &rs);
  const uint64_t t_read = NowNs();
  const uint64_t reader_cpu = ThreadCpuNs() - reader_cpu0 - (rs.probe_cpu_ns - probe_cpu0);
  const uint64_t probe_ns = rs.probe_ns - probe_ns0;
  // Commits and their user bytes in the timed phase that are not the writer's.
  const uint64_t probe_commits = probe ? probe->commits() - probe_commits0 : 0;
  const uint64_t probe_bytes = probe ? probe->user_bytes() - probe_bytes0 : 0;
  if (writer_thread.joinable()) writer_thread.join();
  const uint64_t t1 = NowNs();
  const xst::PagerStats pager1 = store->pager_stats();
  const RegistrySnapshot reg1 = RegistrySnapshot::Take();
  const FileSnapshot files_read = FileSnapshot::Of(counters) - files0;
  const uint64_t queries = rs.attempted - warm_queries;
  const uint64_t result_rows = rs.result_rows - rows_result0;

  // A read-only workload measures commits afterwards, on the same database
  // with no reader running.
  FileSnapshot files_write = files_read;
  uint64_t checkpoints = store->wal_stats().segment - segment0;
  if (!cfg.concurrent_writer) {
    const FileSnapshot w0 = FileSnapshot::Of(counters);
    const uint64_t seg = store->wal_stats().segment;
    writer.Run(commits, kQuietCommitRate, tracing, &writer_tracer, &req_ids);
    files_write = FileSnapshot::Of(counters) - w0;
    checkpoints = store->wal_stats().segment - seg;
  }

  // Space: main file plus log, against the encoded bytes of the live sets.
  if (Status st = store->Flush(); !st.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::error_code ec;
  const double file_bytes = static_cast<double>(std::filesystem::file_size(path, ec)) +
                            static_cast<double>(std::filesystem::file_size(path + ".wal", ec));
  double live_bytes = 0;
  for (const std::string& name : store->List()) {
    Result<XSet> value = store->Get(name);
    if (value.ok()) live_bytes += static_cast<double>(xst::EncodeXSetToString(*value).size());
  }
  store.reset();
  const bool durable_ok = VerifyReopened(cfg, path, &counters, data, writer, &detail);
  std::printf("final check: %s\n", detail.c_str());
  if (!durable_ok) correct = false;
  if (rs.mismatches > 0) {
    correct = false;
    std::printf("result mismatches: %" PRIu64 " (first: %s)\n", rs.mismatches,
                rs.first_mismatch.c_str());
  }
  if (rs.failed > 0) std::printf("failed queries: %" PRIu64 " (first: %s)\n", rs.failed, rs.first_error.c_str());
  if (rs.probes > 0) {
    std::printf("stale-cursor probes: %" PRIu64 ", failed %" PRIu64 "%s%s%s\n", rs.probes,
                rs.probe_failed, rs.probe_failed ? " (first: " : "", rs.first_probe_failure.c_str(),
                rs.probe_failed ? ")" : "");
  }
  // Commits run open loop, a fixed number per run, so they are not counted
  // with the reader's rounds in attempted/failed: a refused commit makes
  // the run incorrect instead.
  if (writer.failed() > 0) {
    correct = false;
    std::printf("refused commits: %" PRIu64 " (first: %s)\n", writer.failed(), writer.first_error().c_str());
  }

  // End-to-end metrics.
  const double read_s = (t_read - t0 - probe_ns) / 1e9;
  const uint64_t completed = (queries - (rs.failed)) +
                             (cfg.concurrent_writer ? writer.attempted() - writer.failed() : 0);
  const uint64_t cpu_ns = reader_cpu + (cfg.concurrent_writer ? writer.cpu_ns() : 0);
  emit("query_rps", queries / read_s, "1/s");
  emit("query_p50_us", Percentile(rs.untraced_ns, 50) / 1e3, "us");
  emit("query_p99_us", Percentile(rs.untraced_ns, 99) / 1e3, "us");
  emit("cpu_us_per_op", Ratio(cpu_ns / 1e3, static_cast<double>(completed)), "us");
  emit("commit_p50_us", Percentile(writer.latency_ns(), 50) / 1e3, "us");
  emit("commit_p99_us", Percentile(writer.latency_ns(), 99) / 1e3, "us");
  emit("rss_peak_mib", PeakRssMiB(), "MiB");
  emit("space_amp", Ratio(file_bytes, live_bytes), "ratio");
  emit("write_amp",
       Ratio(static_cast<double>(files_write.wal_written + files_write.main_written),
             static_cast<double>(writer.user_bytes() + probe_bytes)),
       "ratio");
  std::printf("write-phase file traffic: main %" PRIu64 " B written, %" PRIu64 " B read, %" PRIu64
              " flushes; log %" PRIu64 " B written, %" PRIu64 " B read, %" PRIu64 " flushes\n",
              files_write.main_written, files_write.main_read, files_write.main_flushes,
              files_write.wal_written, files_write.wal_read, files_write.wal_flushes);
  std::printf("samples: %zu queries (p99 has %zu beyond it), %zu commits; timed phase %.3f s\n",
              rs.untraced_ns.size(), rs.untraced_ns.size() / 100, writer.latency_ns().size(),
              (t1 - t0) / 1e9);

  // Per-layer metrics. Counts cover every timed query; times come from the
  // traced requests only (0 in an untraced run).
  const double nq = static_cast<double>(std::max<uint64_t>(queries, 1));
  const double nc = static_cast<double>(std::max<uint64_t>(writer.attempted(), 1));
  // Every commit of the phase the file traffic covers, the probe's too.
  const double nc_files = static_cast<double>(std::max<uint64_t>(writer.attempted() + probe_commits, 1));
  const auto& rt = reader_tracer.totals();
  const auto& wt = writer_tracer.totals();
  const double tq = static_cast<double>(std::max<uint64_t>(reader_tracer.requests(), 1));
  auto incl = [](const std::map<std::string, SpanTotals>& t, const std::string& n) {
    auto it = t.find(n);
    return it == t.end() ? SpanTotals{} : it->second;
  };
  auto per_query_us = [&](const std::string& n) { return incl(rt, n).incl_ns / tq / 1e3; };
  emit("xsp.parse_us", per_query_us("xsp.parse"), "us");
  emit("xsp.optimize_us", per_query_us("xsp.optimize"), "us");
  emit("xsp.compile_us", per_query_us("xsp.compile"), "us");
  emit("xsp.verify_us", per_query_us("xsp.verify"), "us");
  emit("xsp.vm_us", per_query_us("xsp.vm"), "us");
  emit("xsp.vm_self_us", incl(rt, "xsp.vm").self_ns / tq / 1e3, "us");
  const double all_q = static_cast<double>(std::max<uint64_t>(rs.attempted, 1));
  emit("xsp.vm_instructions", reader.vm_stats().instructions / all_q, "count");
  emit("xsp.vm_materializations", reader.vm_stats().materializations / all_q, "count");
  const std::pair<const char*, xsp::OpCode> ops[] = {
      {"ops.load_binding_us", xsp::OpCode::kLoadBinding}, {"ops.load_range_us", xsp::OpCode::kLoadRange},
      {"ops.materialize_us", xsp::OpCode::kMaterialize},  {"ops.index_us", xsp::OpCode::kIndex},
      {"ops.image_us", xsp::OpCode::kImage},              {"ops.union_us", xsp::OpCode::kUnion},
      {"ops.intersect_us", xsp::OpCode::kIntersect},      {"ops.difference_us", xsp::OpCode::kDifference}};
  for (const auto& [name, op] : ops) emit(name, reader.observer().self_ns(op) / tq / 1e3, "us");
  SpanTotals open_all, batch_all;
  for (Access a : {Access::kBlob, Access::kTree, Access::kRange}) {
    const SpanTotals o = incl(rt, OpenSpanName(a)), b = incl(rt, BatchSpanName(a));
    open_all.calls += o.calls;
    open_all.incl_ns += o.incl_ns;
    batch_all.calls += b.calls;
    batch_all.incl_ns += b.incl_ns;
  }
  emit("store.cursor_open_us", Ratio(open_all.incl_ns / 1e3, open_all.calls), "us");
  emit("store.cursor_batch_us", Ratio(batch_all.incl_ns / 1e3, batch_all.calls), "us");
  for (Access a : {Access::kBlob, Access::kTree}) {
    const SpanTotals o = incl(rt, OpenSpanName(a)), b = incl(rt, BatchSpanName(a));
    emit(a == Access::kBlob ? "store.load_blob_us" : "store.load_tree_us",
         Ratio((o.incl_ns + b.incl_ns) / 1e3, o.calls), "us");
  }
  emit("store.rows_per_result", Ratio(source.rows() - rows0, result_rows), "ratio");
  const double hits = pager1.hits - pager0.hits, misses = pager1.misses - pager0.misses;
  emit("pager.hits", hits / nq, "count");
  emit("pager.misses", misses / nq, "count");
  emit("pager.evictions", (pager1.evictions - pager0.evictions) / nq, "count");
  emit("pager.hit_ratio", Ratio(hits, hits + misses), "ratio");
  emit("pager.latch_contention",
       Ratio(1000.0 * (reg1.latch_contention - reg0.latch_contention),
             reg1.latch_acquisitions - reg0.latch_acquisitions),
       "per_1k");
  emit("interner.set_inserts", (reg1.set_inserts - reg0.set_inserts) / nq, "count");
  const double memo_hits = reg1.memo_hits - reg0.memo_hits;
  emit("rescope.memo_hit_ratio", Ratio(memo_hits, memo_hits + (reg1.memo_misses - reg0.memo_misses)),
       "ratio");
  uint64_t call_total = 0;
  for (uint64_t c : writer.call_ns()) call_total += c;
  uint64_t lag_total = 0;
  for (uint64_t l : writer.lag_ns()) lag_total += l;
  emit("store.commit_us", call_total / nc / 1e3, "us");
  emit("wal.bytes_per_commit", files_write.wal_written / nc_files, "B");
  emit("file.main_bytes_per_commit", files_write.main_written / nc_files, "B");
  emit("file.flushes_per_commit", (files_write.wal_flushes + files_write.main_flushes) / nc_files,
       "count");
  const SpanTotals wf = incl(wt, "file.wal_flush"), mf = incl(wt, "file.main_flush");
  emit("file.flush_us", Ratio((wf.incl_ns + mf.incl_ns) / 1e3, wf.calls + mf.calls), "us");
  emit("wal.checkpoints", static_cast<double>(checkpoints), "count");
  emit("file.read_bytes_per_query", files_read.main_read / nq, "B");
  emit("writer.lag_us", lag_total / nc / 1e3, "us");
  const double p50_plain = Percentile(rs.untraced_ns, 50);
  const double p50_traced = Percentile(rs.traced_ns, 50);
  emit("trace.overhead_pct", tracing ? Ratio(100.0 * (p50_traced - p50_plain), p50_plain) : 0, "%");

  for (const Metric& m : metrics) PrintMetric(m);

  if (tracing) {
    // Self time per span name: the rows of each table sum to the measured
    // request (or commit) time.
    auto table = [](const char* title, const Tracer& t) {
      if (t.requests() == 0) return;
      std::printf("self time per %s (%" PRIu64 " traced, mean %.2f us):\n", title, t.requests(),
                  t.request_ns() / 1e3 / t.requests());
      uint64_t self_sum = 0;
      for (const auto& [name, s] : t.totals()) {
        std::printf("  %-26s calls/req %8.3f  incl %10.3f us  self %10.3f us  %6.2f%%\n",
                    name.c_str(), static_cast<double>(s.calls) / t.requests(),
                    s.incl_ns / 1e3 / t.requests(), s.self_ns / 1e3 / t.requests(),
                    100.0 * s.self_ns / t.request_ns());
        self_sum += s.self_ns;
      }
      std::printf("  %-26s %.2f%% of the measured %s time\n", "sum of self times",
                  100.0 * self_sum / t.request_ns(), title);
    };
    table("request", reader_tracer);
    table("commit", writer_tracer);
    std::printf("tracing overhead: query p50 %.2f us traced vs %.2f us untraced (%+.2f%%)\n",
                p50_traced / 1e3, p50_plain / 1e3, Ratio(100.0 * (p50_traced - p50_plain), p50_plain));
    if (!args.trace_out.empty()) {
      if (WriteChromeTrace(args.trace_out, {&reader_tracer, &writer_tracer})) {
        std::printf("trace: %s\n", args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      }
    }
  }

  const uint64_t attempted = rs.attempted + rs.probes;
  const uint64_t failed = rs.failed + rs.probe_failed;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
