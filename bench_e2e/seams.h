// Outside-in measurement seams: decorators the benchmark installs through
// libxst's public extension points, so no program code changes to be
// measured.
//
//   CountingFile      SetStoreOptions::file_factory  bytes, Flush calls, split .wal / main
//   MeasuredSource    CursorSource around StoreCursorSource  cursor opens and batches, rows
//   OpcodeObserver    xsp::VmObserver  per-opcode self time
//
// Counting is always on (relaxed atomics or single-thread counters); time
// is taken only through ScopedSpan, i.e. only in traced requests.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "bench_e2e/spans.h"
#include "src/store/cursor.h"
#include "src/store/file.h"
#include "src/store/setstore.h"
#include "src/xsp/vm.h"

namespace e2e {

/// \brief File traffic, split between the log (`*.wal`) and the main file.
struct FileCounters {
  struct Side {
    std::atomic<uint64_t> bytes_written{0};
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> flushes{0};
  };
  Side wal;
  Side main;
};

/// \brief Plain copy of FileCounters for before/after deltas.
struct FileSnapshot {
  uint64_t wal_written = 0, wal_read = 0, wal_flushes = 0;
  uint64_t main_written = 0, main_read = 0, main_flushes = 0;

  static FileSnapshot Of(const FileCounters& c) {
    FileSnapshot s;
    s.wal_written = c.wal.bytes_written.load(std::memory_order_relaxed);
    s.wal_read = c.wal.bytes_read.load(std::memory_order_relaxed);
    s.wal_flushes = c.wal.flushes.load(std::memory_order_relaxed);
    s.main_written = c.main.bytes_written.load(std::memory_order_relaxed);
    s.main_read = c.main.bytes_read.load(std::memory_order_relaxed);
    s.main_flushes = c.main.flushes.load(std::memory_order_relaxed);
    return s;
  }
  FileSnapshot operator-(const FileSnapshot& o) const {
    FileSnapshot d;
    d.wal_written = wal_written - o.wal_written;
    d.wal_read = wal_read - o.wal_read;
    d.wal_flushes = wal_flushes - o.wal_flushes;
    d.main_written = main_written - o.main_written;
    d.main_read = main_read - o.main_read;
    d.main_flushes = main_flushes - o.main_flushes;
    return d;
  }
};

class CountingFile final : public xst::File {
 public:
  CountingFile(std::unique_ptr<xst::File> inner, FileCounters::Side* side, bool wal)
      : inner_(std::move(inner)), side_(side), wal_(wal) {}

  xst::Result<uint64_t> Size() override { return inner_->Size(); }

  xst::Status ReadAt(uint64_t offset, char* dst, size_t n) override {
    ScopedSpan span(wal_ ? "file.wal_read" : "file.main_read");
    side_->bytes_read.fetch_add(n, std::memory_order_relaxed);
    return inner_->ReadAt(offset, dst, n);
  }

  xst::Status WriteAt(uint64_t offset, const char* src, size_t n) override {
    ScopedSpan span(wal_ ? "file.wal_write" : "file.main_write");
    side_->bytes_written.fetch_add(n, std::memory_order_relaxed);
    return inner_->WriteAt(offset, src, n);
  }

  xst::Status Flush() override {
    ScopedSpan span(wal_ ? "file.wal_flush" : "file.main_flush");
    side_->flushes.fetch_add(1, std::memory_order_relaxed);
    return inner_->Flush();
  }

  xst::Status Truncate(uint64_t size) override { return inner_->Truncate(size); }

 private:
  std::unique_ptr<xst::File> inner_;
  FileCounters::Side* side_;
  bool wal_;
};

/// \brief A FileFactory opening StdioFiles behind CountingFile. `counters`
/// must outlive every store opened with it.
inline xst::FileFactory CountingFileFactory(FileCounters* counters) {
  return [counters](const std::string& path) -> xst::Result<std::unique_ptr<xst::File>> {
    xst::Result<std::unique_ptr<xst::File>> inner = xst::StdioFile::Open(path);
    if (!inner.ok()) return inner.status();
    const bool wal = path.size() >= 4 && path.compare(path.size() - 4, 4, ".wal") == 0;
    return std::unique_ptr<xst::File>(
        new CountingFile(std::move(*inner), wal ? &counters->wal : &counters->main, wal));
  };
}

/// \brief How a cursor reaches its set: a whole blob, a whole tree, or a
/// B+tree element range. Span names carry the kind so load time splits by
/// ModeOf.
enum class Access { kBlob = 0, kTree = 1, kRange = 2 };

inline const char* OpenSpanName(Access a) {
  static constexpr const char* kNames[] = {"store.cursor_open.blob", "store.cursor_open.tree",
                                           "store.cursor_open.range"};
  return kNames[static_cast<int>(a)];
}
inline const char* BatchSpanName(Access a) {
  static constexpr const char* kNames[] = {"store.cursor_batch.blob", "store.cursor_batch.tree",
                                           "store.cursor_batch.range"};
  return kNames[static_cast<int>(a)];
}

class MeasuredCursor final : public xst::MemberCursor {
 public:
  MeasuredCursor(std::unique_ptr<xst::MemberCursor> inner, Access access, uint64_t* rows)
      : inner_(std::move(inner)), access_(access), rows_(rows) {}

  std::span<const xst::Membership> NextBatch() override {
    ScopedSpan span(BatchSpanName(access_));
    std::span<const xst::Membership> batch = inner_->NextBatch();
    *rows_ += batch.size();
    return batch;
  }

  std::optional<xst::XSet> WholeSet() const override { return inner_->WholeSet(); }
  xst::Status status() const override { return inner_->status(); }

 private:
  std::unique_ptr<xst::MemberCursor> inner_;
  Access access_;
  uint64_t* rows_;
};

/// \brief CursorSource decorator around StoreCursorSource. The storage mode
/// of every name is read once, through SetStore::ModeOf, when the source is
/// built, so the read path adds no store call of its own.
class MeasuredSource final : public xst::CursorSource {
 public:
  MeasuredSource(xst::SetStore& store, std::map<std::string, Access> modes)
      : inner_(store), modes_(std::move(modes)) {}

  xst::Result<std::unique_ptr<xst::MemberCursor>> Open(const std::string& name) const override {
    auto it = modes_.find(name);
    const Access access = it == modes_.end() ? Access::kBlob : it->second;
    ScopedSpan span(OpenSpanName(access));
    return Wrap(inner_.Open(name), access);
  }

  xst::Result<std::unique_ptr<xst::MemberCursor>> OpenElementRange(
      const std::string& name, const xst::XSet& lo, const xst::XSet& hi) const override {
    ScopedSpan span(OpenSpanName(Access::kRange));
    return Wrap(inner_.OpenElementRange(name, lo, hi), Access::kRange);
  }

  /// Rows streamed out of cursors opened through this source. Touched only
  /// by the reader thread.
  uint64_t rows() const { return rows_; }

 private:
  xst::Result<std::unique_ptr<xst::MemberCursor>> Wrap(
      xst::Result<std::unique_ptr<xst::MemberCursor>> cursor, Access access) const {
    if (!cursor.ok()) return cursor.status();
    return std::unique_ptr<xst::MemberCursor>(
        new MeasuredCursor(std::move(*cursor), access, &rows_));
  }

  xst::StoreCursorSource inner_;
  std::map<std::string, Access> modes_;
  mutable uint64_t rows_ = 0;
};

/// \brief Per-opcode self time, from the VM's own dispatch-to-dispatch
/// clock (the VM measures only while an observer is installed, so this is
/// installed in traced requests only).
class OpcodeObserver final : public xst::xsp::VmObserver {
 public:
  void OnInstrStart(size_t) override {}
  void OnInstr(size_t, const xst::xsp::Instr& instr, uint64_t, bool, bool,
               uint64_t self_ns) override {
    const size_t op = static_cast<size_t>(instr.op);
    self_ns_[op] += self_ns;
  }

  uint64_t self_ns(xst::xsp::OpCode op) const { return self_ns_[static_cast<size_t>(op)]; }

 private:
  std::array<uint64_t, xst::xsp::kNumOpCodes> self_ns_{};
};

}  // namespace e2e
