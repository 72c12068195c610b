#include "spans.h"

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <set>

namespace ssa {
namespace perfbench {

void SpanLog::Close(uint64_t id, const char* name, int32_t track, uint64_t op,
                    uint64_t parent, uint64_t start_ns, uint64_t end_ns) {
  if (!enabled_) return;
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, op, track});
}

uint64_t SpanLog::Leaf(const char* name, int32_t track, uint64_t op,
                       uint64_t parent, uint64_t start_ns, uint64_t end_ns) {
  if (!enabled_) return 0;
  const uint64_t id = Open();
  Close(id, name, track, op, parent, start_ns, end_ns);
  return id;
}

void SpanLog::AddProgramSpans(std::vector<TraceEvent> events) {
  if (!enabled_) return;
  program_spans_.insert(program_spans_.end(),
                        std::make_move_iterator(events.begin()),
                        std::make_move_iterator(events.end()));
}

std::vector<std::string> SpanLog::Names() const {
  std::set<std::string> names;
  for (const Span& s : spans_) names.insert(s.name);
  for (const TraceEvent& e : program_spans_) {
    names.insert(std::string("tracer/") + TraceStageName(e.stage));
  }
  return std::vector<std::string>(names.begin(), names.end());
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  // The program tracers' events are rendered by Tracer::ExportChromeTrace
  // (process id 1) and spliced in; the harness's own spans, which carry
  // parent ids, go under process id 2.
  const std::string program = Tracer::ExportChromeTrace(program_spans_);
  const size_t open = program.find('[');
  const size_t close = program.rfind(']');
  if (open == std::string::npos || close == std::string::npos) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"program tracers\"}},\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
               "\"args\":{\"name\":\"perfbench harness\"}}");
  if (close > open + 1) {
    std::fprintf(f, ",\n%.*s", static_cast<int>(close - open - 1),
                 program.data() + open + 1);
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64
                 ",\"id\":%" PRIu64 ",\"parent\":%" PRIu64 "}}",
                 s.name, s.track, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.op, s.id,
                 s.parent);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
}  // namespace ssa
