// The layout_tool usage block, factored into a header so tests/test_obs.cpp
// can assert it stays current (correct tool name, every flag family listed).
#pragma once

namespace mlvl::tool {

inline constexpr const char kLayoutToolUsage[] =
    R"usage(usage: layout_tool <network> [args...] [options]
       layout_tool sweep <spec-range>... [-L lo[..hi]] [-j N]
                   [-nocheck] [--deadline ms] [--sweep-deadline ms]
       layout_tool bench-diff <baseline.json> <current.json>
                   [--max-regress pct] [--noise-floor ms] [--json file]
                   [--save-baseline]
       layout_tool profile <trace.json> [--json file] [--top N]
       layout_tool --doctor <file> [-repair] [-save file]
       layout_tool --lint <file> [-strict] [-baseline file]
                   [-save-baseline file] [-disable rule]
networks: hypercube n | kary k n | mesh k n | ghc r n |
          folded n | enhanced n seed | ccc n | rh n |
          hsn levels r | hhn levels m | isn levels r |
          butterfly k | star n | cluster k n c
          (also spec form: hypercube(n=4), cluster(k=4,n=4,c=8), ...)
options:
  -L <layers>       wiring layers (default 4)
  -svg <file>       write an SVG rendering
  -save <file>      export graph+geometry in the mlvl text format
  -congestion       print the per-layer utilization report
  -nocheck          skip geometric verification (for very large instances)
sweep options:
  spec ranges use a=lo..hi, e.g. "hypercube(n=4..8)" or "kary(k=3,n=1..3)"
  -j <N>            worker threads (default: hardware concurrency)
                    each topology is built once and shared across layer counts
  --deadline <ms>   per-job budget; over-budget jobs report verdict 'deadline'
  --sweep-deadline <ms>  whole-batch budget; unstarted jobs become 'skipped'
bench-diff options:
  --max-regress <pct>  wall-time slowdown tolerated before failing (default 20)
  --noise-floor <ms>   absolute wall-time slack per record (default 2.0)
  --json <file>        also write the machine-readable diff report
  --save-baseline      refresh <baseline.json> from <current.json> and exit 0
profile options:
  re-parse a --trace file and print where the time went: per-phase
  inclusive vs exclusive (self) time, per-thread utilization, the
  critical path, and the slowest engine.job spans with their tags
  --json <file>     also write the machine-readable mlvl-profile-v1 report
  --top <N>         slowest-job rows to keep (default 10)

checker options (all modes that verify geometry):
  --via-rule <rule>  blocking | transparent: via occupancy model for
                    --doctor and --lint
observability (all modes):
  --trace <file>    write a Chrome trace-event JSON of every pipeline phase
  --metrics <file>  write the metrics registry (.csv extension -> CSV, else JSON)
  --quiet | -q      errors only (exit code still reports validity)
  -v                more detail (repeatable: -v phase summary, -v -v debug)
doctor options:
  -repair           rip up implicated edges and re-route through free cells
  -save <file>      write the (repaired) layout back out
lint options:
  -strict           exit 1 when any unsuppressed warning remains
  -baseline <file>  suppress the finding fingerprints listed in file
  -save-baseline <f> write the current findings as a baseline and exit 0
  -disable <rule-id> turn one rule off (repeatable)
exit codes: 0 valid, 1 invalid, 2 parse error, 3 usage
)usage";

}  // namespace mlvl::tool
