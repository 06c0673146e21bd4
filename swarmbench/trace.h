// Span recorder for the traced run, written as Chrome trace-event JSON
// (load it in Perfetto or chrome://tracing).
//
// Two timelines: pid 1 holds host-time spans (set-up steps, the measured
// window, layer probes); pid 2 holds virtual-time spans, one per KV call
// (tid = client) plus RecoverAndRepair on the coordinator's tid. Every span
// names its parent span; a KV span's `op` is the op's index in the run, the
// identifier its request shares. Spans stay in memory until Write.

#ifndef SWARMBENCH_TRACE_H_
#define SWARMBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace swarm::kvbench {

class TraceRecorder {
 public:
  static constexpr int kHostPid = 1;
  static constexpr int kVirtualPid = 2;

  void Add(const char* name, const char* parent, int pid, int tid, double start_us,
           double dur_us, uint64_t op = 0, uint64_t key = 0) {
    spans_.push_back({name, parent, pid, tid, start_us, dur_us, op, key});
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{\"name\":\"host "
                 "time\"}},\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{"
                 "\"name\":\"virtual time\"}}",
                 kHostPid, kVirtualPid);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"parent\":\"%s\",\"op\":%llu,\"key\":%llu}}",
                   s.name, s.pid, s.tid, s.start_us, s.dur_us, s.parent,
                   static_cast<unsigned long long>(s.op), static_cast<unsigned long long>(s.key));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;  // String literals only.
    const char* parent;
    int pid;
    int tid;
    double start_us;
    double dur_us;
    uint64_t op;
    uint64_t key;
  };
  std::vector<Span> spans_;
};

}  // namespace swarm::kvbench

#endif  // SWARMBENCH_TRACE_H_
