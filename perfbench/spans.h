// In-memory span log of the traced benchmark mode: one span per call into a
// measured layer, kept in a vector and written once, as a Chrome trace-event
// file, when the run ends.
#ifndef SSA_PERFBENCH_SPANS_H_
#define SSA_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace ssa {
namespace perfbench {

struct Span {
  const char* name = "";  // layer call, e.g. "ShardedAuctionEngine::PlanAuction"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;      // unique per span, 1-based
  uint64_t parent = 0;  // id of the enclosing span, 0 for a root
  uint64_t op = 0;      // the auction, request or record the span serves
  int32_t track = 0;    // rendered as the Chrome trace thread id
};

/// Single-threaded: only the harness's main thread records.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  /// Reserves the id of a span whose children are recorded before it ends.
  uint64_t Open() { return enabled_ ? ++last_id_ : 0; }

  /// Records a finished span under a reserved id (from Open()).
  void Close(uint64_t id, const char* name, int32_t track, uint64_t op,
             uint64_t parent, uint64_t start_ns, uint64_t end_ns);

  /// Records a finished leaf span; returns its id (0 when disabled).
  uint64_t Leaf(const char* name, int32_t track, uint64_t op, uint64_t parent,
                uint64_t start_ns, uint64_t end_ns);

  /// Keeps spans the program's own Tracers recorded (server pipeline stages,
  /// the leader engine's shard slices, follower applies), written by
  /// Tracer::ExportChromeTrace under a process id of their own.
  void AddProgramSpans(std::vector<TraceEvent> events);

  size_t size() const { return spans_.size() + program_spans_.size(); }
  /// Distinct span names recorded (the layers the trace covers).
  std::vector<std::string> Names() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool WriteChromeTrace(const std::string& path) const;

  static uint64_t NowNs() { return Tracer::NowNs(); }

 private:
  bool enabled_;
  uint64_t last_id_ = 0;
  std::vector<Span> spans_;
  std::vector<TraceEvent> program_spans_;
};

}  // namespace perfbench
}  // namespace ssa

#endif  // SSA_PERFBENCH_SPANS_H_
