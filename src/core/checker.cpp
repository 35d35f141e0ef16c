// Record-level checking (see checker.hpp and DESIGN.md §7.13).
//
// A pass has three phases, each a sort or a sweep over records:
//   1. Frame scan: coordinate-range gate, node-box bounds/duplicate/overlap
//      checks, segment and via frame checks, reported in record order.
//   2. Occupancy: horizontal runs, vertical runs and via columns are each
//      radix-sorted by grid line, then met in two ordered walks: over the
//      y-planes (horizontal runs and via columns) and over the x-planes
//      (vertical runs, and the via columns regrouped by x). Per plane, the
//      runs meet the registered node boxes (terminal theft), merge along
//      their lines (an edge's own runs join, other edges' overlaps are
//      collisions) and cross the other kind: the columns walk the row
//      lines they span, found by binary search, or where they span many
//      each row queries a bitset of the active columns. Each colliding
//      edge pair is reported once, at its lowest shared point.
//   3. Connectivity: an edge whose runs the crossings already joined is
//      connected; any other edge runs a union-find over its records,
//      joining two records whose point boxes touch or are 6-adjacent.
// The phases run one after another on the calling thread, and each sorts
// its findings before reporting them, so the diagnostic sequence depends
// only on the input.
#include "core/checker.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <utility>

#include "core/cancel.hpp"
#include "core/gridkey.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlvl {
namespace {

using grid::key3;
using grid::key_x;
using grid::key_y;
using grid::key_z;
using grid::kCoordMax;

Diagnostic at_point(std::uint32_t x, std::uint32_t y, std::uint32_t z,
                    Diagnostic d) {
  d.has_point = true;
  d.x = x;
  d.y = y;
  d.layer = static_cast<std::uint16_t>(z);
  return d;
}

/// Widest radix digit: 2^11 four-byte counters fit in L1.
constexpr unsigned kDigitBits = 11;

/// The digits an LSD radix sort passes over, and their histograms. Whoever
/// produces the keys can count them as it goes (`add`), which spares the
/// sort a counting pass over its input.
struct Digits {
  static constexpr unsigned kMaxPasses = 6;  // 64 bits at kDigitBits each
  unsigned bits = 0;                         ///< per digit
  unsigned passes = 0;
  std::array<unsigned, kMaxPasses> shift{};
  std::vector<std::uint32_t> count;  ///< passes x 2^bits

  /// Keys of `key_bits` bits, cut into the fewest digits of at most
  /// kDigitBits, all of one width.
  void reset(unsigned key_bits) {
    passes = (key_bits + kDigitBits - 1) / kDigitBits;
    bits = passes == 0 ? 0 : (key_bits + passes - 1) / passes;
    for (unsigned p = 0; p < passes; ++p) shift[p] = p * bits;
    count.assign(std::size_t{passes} << bits, 0);
  }
  [[nodiscard]] std::uint32_t digit(std::uint64_t k, unsigned p) const {
    return static_cast<std::uint32_t>(k >> shift[p]) & ((1u << bits) - 1);
  }
  /// Counts key `k`, for digits of one width (as `reset` cuts them).
  void add(std::uint64_t k) {
    // Locals: the counters could alias the fields as far as the compiler
    // knows, which would reload them after every increment.
    const unsigned b = bits;
    const std::uint64_t mask = (std::uint64_t{1} << b) - 1;
    std::uint32_t* c = count.data();
    for (unsigned p = 0, n = passes; p < n; ++p, k >>= b, c += mask + 1)
      ++c[k & mask];
  }
};

/// Sorts `v` stably by `key`, one scatter pass per digit of `d`, whose
/// histograms must be those of v's keys; `tmp` is the second buffer (the
/// two may trade storage). A digit every key shares moves nothing and is
/// skipped.
template <typename T, typename KeyFn>
void radix_passes(std::vector<T>& v, KeyFn key, Digits& d,
                  std::vector<T>& tmp) {
  if (v.empty()) return;
  tmp.resize(v.size());
  const std::size_t buckets = std::size_t{1} << d.bits;
  const std::uint64_t mask = buckets - 1;
  for (unsigned p = 0; p < d.passes; ++p) {
    std::uint32_t* c = &d.count[p * buckets];
    const unsigned sh = d.shift[p];
    const KeyFn k = key;  // a local: the counters cannot alias it
    if (c[(k(v.front()) >> sh) & mask] == v.size()) continue;
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < buckets; ++b) sum += std::exchange(c[b], sum);
    for (const T& t : v) tmp[c[(k(t) >> sh) & mask]++] = t;
    v.swap(tmp);
  }
}

/// Stable LSD radix sort by a 64-bit key, kDigitBits a pass, using `tmp`
/// as the second buffer. Passes start at the lowest key bit that still
/// varies, so keys whose fields leave gaps take no pass over the gaps.
template <typename T, typename KeyFn>
void radix_sort(std::vector<T>& v, KeyFn key, std::vector<T>& tmp) {
  if (v.size() < 2) return;
  Digits d;
  d.bits = kDigitBits;
  std::uint64_t vary = 0;
  const std::uint64_t k0 = key(v.front());
  for (const T& t : v) vary |= key(t) ^ k0;
  while (vary != 0) {
    const auto sh = static_cast<unsigned>(std::countr_zero(vary));
    d.shift[d.passes++] = sh;
    vary &= ~(((std::uint64_t{1} << kDigitBits) - 1) << sh);
  }
  d.count.assign(std::size_t{d.passes} << d.bits, 0);
  for (const T& t : v) {
    const std::uint64_t k = key(t);
    for (unsigned p = 0; p < d.passes; ++p)
      ++d.count[(std::size_t{p} << d.bits) + d.digit(k, p)];
  }
  radix_passes(v, key, d, tmp);
}

template <typename T, typename KeyFn>
void radix_sort(std::vector<T>& v, KeyFn key) {
  std::vector<T> tmp;
  radix_sort(v, key, tmp);
}

/// Fans every violation into the sink while tracking the pass verdict
/// locally: the count and first diagnostic are recorded even for
/// violations the sink has no room for, so `CheckReport::ok` never
/// depends on the sink capacity.
struct Reporter {
  DiagnosticSink& sink;
  std::uint64_t found = 0;
  Diagnostic first;

  void operator()(Diagnostic d) {
    if (found++ == 0) first = d;
    if (!sink.full()) sink.report(std::move(d));
  }
};

/// Record-level frame scan results handed to the occupancy and
/// connectivity phases.
struct FrameResult {
  std::vector<const NodeBox*> box_of;      ///< per node, its first box
  std::vector<char> box_registered;        ///< per node: box_of is in bounds
  std::vector<std::uint32_t> reg_boxes;    ///< geom indices of valid boxes
  std::vector<std::uint32_t> by_row;       ///< reg_boxes by (layer, y, x)
  std::vector<char> edge_frame_ok;         ///< per edge
  bool boxes_overlap = false;              ///< some registered boxes overlap
};

/// True iff two of the boxes in `order` (sorted by layer, then top row)
/// share a cell. The boxes still open at a box's top row all cover that row,
/// so while none overlap they are disjoint in x; kept sorted by x, a new box
/// can only overlap its two neighbours there.
bool any_box_overlap(const LayoutGeometry& geom,
                     const std::vector<std::uint32_t>& order) {
  using Open = std::pair<std::uint32_t, std::uint32_t>;  // (x, box)
  std::vector<Open> open;
  // Boxes in closing order: (layer, first row below the box).
  std::vector<std::uint32_t> closing = order;
  radix_sort(closing, [&](std::uint32_t i) {
    const NodeBox& b = geom.boxes[i];
    return std::uint64_t{b.layer} << 32 | (b.y + b.h);
  });
  std::size_t closed = 0;
  int layer = -1;
  for (std::uint32_t bi : order) {
    const NodeBox& b = geom.boxes[bi];
    if (static_cast<int>(b.layer) != layer) {
      layer = b.layer;
      open.clear();
      while (closed < closing.size() &&
             geom.boxes[closing[closed]].layer < b.layer)
        ++closed;
    }
    for (; closed < closing.size() &&
           geom.boxes[closing[closed]].layer == b.layer &&
           geom.boxes[closing[closed]].y + geom.boxes[closing[closed]].h <=
               b.y;
         ++closed) {
      const NodeBox& c = geom.boxes[closing[closed]];
      open.erase(std::lower_bound(open.begin(), open.end(),
                                  Open{c.x, closing[closed]}));
    }
    const auto pos = std::lower_bound(open.begin(), open.end(), Open{b.x, bi});
    if (pos != open.end() && pos->first < b.x + b.w) return true;
    if (pos != open.begin()) {
      const NodeBox& p = geom.boxes[std::prev(pos)->second];
      if (p.x + p.w > b.x) return true;
    }
    open.insert(pos, {b.x, bi});
  }
  return false;
}

/// Phase 1: everything checkable without expanding points, reported in
/// record order (boxes, then box overlaps, then segments, then vias). The
/// scan stops once the sink is full (the producers-stop contract).
void frame_scan(const Graph& g, const LayoutGeometry& geom, Reporter& rep,
                FrameResult& fr) {
  fr.box_of.assign(g.num_nodes(), nullptr);
  fr.box_registered.assign(g.num_nodes(), 0);
  fr.edge_frame_ok.assign(g.num_edges(), 1);
  fr.reg_boxes.clear();

  if (geom.boxes.size() != g.num_nodes())
    rep({.code = Code::kBoxCountMismatch,
         .detail = std::to_string(geom.boxes.size()) + " boxes for " +
                   std::to_string(g.num_nodes()) + " nodes"});
  for (std::size_t bi = 0; bi < geom.boxes.size(); ++bi) {
    if (rep.sink.full()) return;
    const NodeBox& b = geom.boxes[bi];
    if (b.node >= g.num_nodes()) {
      rep({.code = Code::kBoxUnknownNode,
           .detail = "node id " + std::to_string(b.node)});
      continue;
    }
    if (fr.box_of[b.node]) {
      rep({.code = Code::kBoxDuplicate, .node = b.node});
      continue;
    }
    fr.box_of[b.node] = &b;
    bool frame_ok = true;
    if (b.w == 0 || b.h == 0 ||
        static_cast<std::uint64_t>(b.x) + b.w > geom.width ||
        static_cast<std::uint64_t>(b.y) + b.h > geom.height) {
      rep({.code = Code::kBoxOutOfBounds,
           .has_point = true,
           .x = b.x,
           .y = b.y,
           .layer = b.layer,
           .node = b.node});
      frame_ok = false;
    }
    if (b.layer < 1 || b.layer > geom.num_layers) {
      rep({.code = Code::kBoxLayerRange,
           .has_point = true,
           .x = b.x,
           .y = b.y,
           .layer = b.layer,
           .node = b.node});
      frame_ok = false;
    }
    if (!frame_ok) continue;  // cells unbounded/invalid: do not register
    fr.reg_boxes.push_back(static_cast<std::uint32_t>(bi));
    fr.box_registered[b.node] = 1;
  }

  // Box disjointness: per-layer sweep over the registered boxes sorted by
  // top row. Disjoint boxes (the common case) are confirmed without
  // listing pairs; otherwise an active list pruned on row exit finds every
  // overlapping pair. One report per overlapping box (keyed by the later
  // geometry index), placed at the top-left cell of the overlap rectangle —
  // the first cell the classic per-point registration would have found
  // taken.
  fr.by_row = fr.reg_boxes;
  radix_sort(fr.by_row, [&](std::uint32_t i) {
    return key3(geom.boxes[i].x, geom.boxes[i].y, geom.boxes[i].layer);
  });
  if (any_box_overlap(geom, fr.by_row)) {
    struct Hit {
      std::uint32_t later, oy, ox;
    };
    std::vector<Hit> hits;
    std::vector<std::uint32_t> active;
    int cur_layer = -1;
    for (std::uint32_t bi : fr.by_row) {
      const NodeBox& b = geom.boxes[bi];
      if (static_cast<int>(b.layer) != cur_layer) {
        active.clear();
        cur_layer = b.layer;
      }
      std::erase_if(active, [&](std::uint32_t ai) {
        const NodeBox& a = geom.boxes[ai];
        return a.y + a.h <= b.y;
      });
      for (std::uint32_t ai : active) {
        const NodeBox& a = geom.boxes[ai];
        if (a.x < b.x + b.w && b.x < a.x + a.w)  // rows overlap by sweep
          hits.push_back({std::max(ai, bi), std::max(a.y, b.y),
                          std::max(a.x, b.x)});
      }
      active.push_back(bi);
    }
    fr.boxes_overlap = !hits.empty();
    std::sort(hits.begin(), hits.end(), [](const Hit& l, const Hit& r) {
      return std::tie(l.later, l.oy, l.ox) < std::tie(r.later, r.oy, r.ox);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      if (i > 0 && hits[i].later == hits[i - 1].later) continue;
      if (rep.sink.full()) return;
      const NodeBox& b = geom.boxes[hits[i].later];
      rep(at_point(hits[i].ox, hits[i].oy, b.layer,
                   {.code = Code::kBoxOverlap, .node = b.node}));
    }
  }

  for (const WireSeg& s : geom.segs) {
    if (rep.sink.full()) return;
    if (s.edge >= g.num_edges()) {
      rep({.code = Code::kSegUnknownEdge,
           .has_point = true,
           .x = s.x1,
           .y = s.y1,
           .layer = s.layer,
           .detail = "edge id " + std::to_string(s.edge)});
      continue;
    }
    bool ok = true;
    if (s.x1 > s.x2 || s.y1 > s.y2 || (s.x1 != s.x2 && s.y1 != s.y2)) {
      rep({.code = Code::kSegMalformed,
           .has_point = true,
           .x = s.x1,
           .y = s.y1,
           .layer = s.layer,
           .edge = s.edge});
      ok = false;
    }
    if (ok && (s.x2 >= geom.width || s.y2 >= geom.height)) {
      rep({.code = Code::kSegOutOfBounds,
           .has_point = true,
           .x = s.x2,
           .y = s.y2,
           .layer = s.layer,
           .edge = s.edge});
      ok = false;
    }
    if (s.layer < 1 || s.layer > geom.num_layers) {
      rep({.code = Code::kSegLayerRange,
           .has_point = true,
           .x = s.x1,
           .y = s.y1,
           .layer = s.layer,
           .edge = s.edge});
      ok = false;
    }
    if (!ok) fr.edge_frame_ok[s.edge] = 0;
  }
  for (const Via& v : geom.vias) {
    if (rep.sink.full()) return;
    if (v.edge >= g.num_edges()) {
      rep({.code = Code::kViaUnknownEdge,
           .has_point = true,
           .x = v.x,
           .y = v.y,
           .layer = v.z1,
           .detail = "edge id " + std::to_string(v.edge)});
      continue;
    }
    bool ok = true;
    if (v.z1 < 1 || v.z2 > geom.num_layers || v.z1 > v.z2) {
      rep({.code = Code::kViaSpanInvalid,
           .has_point = true,
           .x = v.x,
           .y = v.y,
           .layer = v.z1,
           .edge = v.edge});
      ok = false;
    }
    if (v.x >= geom.width || v.y >= geom.height) {
      rep({.code = Code::kViaOutOfBounds,
           .has_point = true,
           .x = v.x,
           .y = v.y,
           .layer = v.z1,
           .edge = v.edge});
      ok = false;
    }
    if (!ok) fr.edge_frame_ok[v.edge] = 0;
  }
}

/// Union-find whose representatives are the smallest index.
struct Dsu {
  std::vector<std::uint32_t> parent;

  void reset(std::size_t n) {
    parent.resize(n);
    std::iota(parent.begin(), parent.end(), 0u);
  }
  std::uint32_t find(std::uint32_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  }
  /// True iff a and b were in different components.
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent[std::max(a, b)] = std::min(a, b);
    return true;
  }
};

// ---- Occupancy -------------------------------------------------------------

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// The walks poll for cancellation once per this many planes.
constexpr std::size_t kPollPlanes = 1024;

/// A claimed interval [lo, hi] on one grid line. `key` packs
/// key3(lo, line, group), so sorting by it groups runs by line in start
/// order. What group, line and lo mean depends on the run's Axis.
struct Run {
  std::uint64_t key;
  std::uint32_t hi;
  EdgeId edge;

  [[nodiscard]] std::uint32_t group() const { return key_z(key); }
  [[nodiscard]] std::uint32_t line() const { return key_y(key); }
  [[nodiscard]] std::uint32_t lo() const { return key_x(key); }
  [[nodiscard]] std::uint64_t line_key() const {
    return key >> grid::kCoordBits;
  }
};

/// The axis a run extends along. The key layouts are chosen so that the
/// wire-via crossing sweeps read the runs in the order they are merged in:
///   kX: horizontal wire runs, group = y, line = layer, span x;
///   kY: vertical wire runs,   group = x, line = layer, span y;
///   kZ: via columns,          group = y, line = x,     span z.
enum class Axis { kX, kY, kZ };

/// key3(x, y, z) of the point at `pos` on a run's line.
std::uint64_t point_key(Axis a, std::uint32_t group, std::uint32_t line,
                        std::uint32_t pos) {
  switch (a) {
    case Axis::kX:
      return key3(pos, group, line);
    case Axis::kY:
      return key3(group, pos, line);
    case Axis::kZ:
      break;
  }
  return key3(line, group, pos);
}

/// A run's (group, line, lo) packed into only the bits the grid's extent
/// needs, each field less its least possible value. The order is key3's,
/// in fewer radix digits: three small fields share two digits where key3's
/// 20-bit fields take a digit each.
struct DenseKey {
  std::uint32_t line_min, lo_min;
  unsigned line_bits, lo_bits, bits;

  DenseKey(std::uint32_t group_max, std::uint32_t line_min,
           std::uint32_t line_max, std::uint32_t lo_min, std::uint32_t lo_max)
      : line_min(line_min),
        lo_min(lo_min),
        line_bits(std::bit_width(line_max - line_min)),
        lo_bits(std::bit_width(lo_max - lo_min)),
        bits(std::bit_width(group_max) + line_bits + lo_bits) {}

  [[nodiscard]] std::uint64_t operator()(std::uint32_t group,
                                         std::uint32_t line,
                                         std::uint32_t lo) const {
    return (std::uint64_t{group} << line_bits | (line - line_min))
               << lo_bits |
           (lo - lo_min);
  }
  [[nodiscard]] std::uint64_t operator()(const Run& r) const {
    return (*this)(r.group(), r.line(), r.lo());
  }
};

/// A grid point two different edges both claim (a < b), as key3(x, y, z).
struct Hit {
  std::uint64_t at;
  EdgeId a, b;
};

Hit hit_at(std::uint64_t at, EdgeId e1, EdgeId e2) {
  return {at, std::min(e1, e2), std::max(e1, e2)};
}

/// End of the plane that starts at runs[b]: the runs of group `g`, if
/// runs[b] has it.
std::size_t plane_end(const std::vector<Run>& runs, std::size_t b,
                      std::uint32_t g) {
  while (b < runs.size() && runs[b].group() == g) ++b;
  return b;
}

std::uint32_t group_at(const std::vector<Run>& runs, std::size_t i) {
  return i < runs.size() ? runs[i].group() : ~std::uint32_t{0};
}

/// Sweeps the lines of one plane, runs[b, e) (sorted by key), in start
/// order, writing the merged runs from runs[kept] on (kept <= b): an
/// edge's own overlapping runs become one, so the distinct claims of a line
/// are its merged lengths; an overlap with another edge's run is a hit at
/// the later run's start, added to `hits`. Every active run contains that
/// start, so the work is the runs plus the overlaps reported.
void merge_lines(std::vector<Run>& runs, std::size_t b, std::size_t e,
                 Axis axis, std::size_t& kept,
                 std::vector<std::size_t>& active, std::vector<Hit>& hits) {
  std::uint64_t line = ~std::uint64_t{0};
  for (std::size_t k = b; k < e; ++k) {
    const Run r = runs[k];
    if (r.line_key() != line) {
      line = r.line_key();
      active.clear();  // merged runs on the current line
      if (k + 1 == e || runs[k + 1].line_key() != line) {
        runs[kept++] = r;  // alone on its line
        continue;
      }
    }
    const std::uint32_t lo = r.lo();
    std::erase_if(active, [&](std::size_t i) { return runs[i].hi < lo; });
    std::size_t same = kNpos;
    for (std::size_t i : active) {
      if (runs[i].edge == r.edge)
        same = i;
      else
        hits.push_back(hit_at(point_key(axis, r.group(), r.line(), lo),
                              runs[i].edge, r.edge));
    }
    if (same != kNpos) {
      runs[same].hi = std::max(runs[same].hi, r.hi);
    } else {
      active.push_back(kept);
      runs[kept++] = r;
    }
  }
}

/// Runs regrouped with group and line swapped (e.g. via columns from
/// (y, x) to (x, y)), sorted by the new key, with each run's index in the
/// source.
struct Regrouped {
  std::vector<Run> runs;
  std::vector<std::uint32_t> from;
};

/// Run `r` with its group and line swapped.
Run swapped(const Run& r) {
  return {key3(r.lo(), r.group(), r.line()), r.hi, r.edge};
}

/// All of sorted `src` regrouped into `out` (whose storage is reused). The
/// source order is already (line, group, lo) for the new key, so a stable
/// sort by the old line alone completes it; the caller counted that line's
/// digit histograms `d`. Each pass reads its input in order; the first swaps
/// group and line on the way, and the last lands in `out`. `tmp` is the
/// second buffer.
void regroup_counted(const std::vector<Run>& src, Digits& d, Regrouped& out,
                     Regrouped& tmp) {
  const std::size_t n = src.size();
  out.runs.resize(n);
  out.from.resize(n);
  if (d.passes == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      out.runs[i] = swapped(src[i]);
      out.from[i] = static_cast<std::uint32_t>(i);
    }
    return;
  }
  tmp.runs.resize(n);
  tmp.from.resize(n);
  const std::size_t buckets = std::size_t{1} << d.bits;
  for (unsigned p = 0; p < d.passes; ++p) {
    Regrouped& dst = (d.passes - 1 - p) % 2 == 0 ? out : tmp;
    const Regrouped& in = &dst == &out ? tmp : out;
    std::uint32_t* c = &d.count[p * buckets];
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < buckets; ++b) sum += std::exchange(c[b], sum);
    for (std::size_t i = 0; i < n; ++i) {
      const Run r = p == 0 ? swapped(src[i]) : in.runs[i];
      const std::uint32_t j = c[d.digit(r.group(), p)]++;
      dst.runs[j] = r;
      dst.from[j] = p == 0 ? static_cast<std::uint32_t>(i) : in.from[i];
    }
  }
}

/// Bitset over slots with a summary word per 64 words, so finding the next
/// set slot skips empty stretches 4096 slots at a time.
class SlotSet {
 public:
  void reset_size(std::size_t n) {
    words_.assign((n + 63) / 64, 0);
    summary_.assign((words_.size() + 63) / 64, 0);
  }
  void set(std::size_t i) {
    words_[i / 64] |= bit(i % 64);
    summary_[i / 4096] |= bit(i / 64 % 64);
  }
  void reset(std::size_t i) {
    std::uint64_t& w = words_[i / 64];
    w &= ~bit(i % 64);
    if (w == 0) summary_[i / 4096] &= ~bit(i / 64 % 64);
  }
  /// Smallest set slot >= i, or kNpos.
  [[nodiscard]] std::size_t next(std::size_t i) const {
    std::size_t w = i / 64;
    if (w >= words_.size()) return kNpos;
    const std::uint64_t m = words_[w] & (~std::uint64_t{0} << (i % 64));
    if (m != 0) return w * 64 + static_cast<std::size_t>(std::countr_zero(m));
    ++w;
    for (std::size_t s = w / 64; s < summary_.size(); ++s) {
      std::uint64_t sm = summary_[s];
      if (s == w / 64) sm &= ~std::uint64_t{0} << (w % 64);
      if (sm == 0) continue;
      const std::size_t ww =
          s * 64 + static_cast<std::size_t>(std::countr_zero(sm));
      return ww * 64 + static_cast<std::size_t>(std::countr_zero(words_[ww]));
    }
    return kNpos;
  }

 private:
  static std::uint64_t bit(std::size_t b) { return std::uint64_t{1} << b; }
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
};

/// The plane two run kinds cross in, fixing how (plane, row, pos) maps back
/// to grid coordinates: wires cross wires in a layer (rows y, positions x),
/// horizontal wires cross vias in a y-plane (rows z, positions x), vertical
/// wires cross vias in an x-plane (rows z, positions y).
enum class Plane { kLayer, kRowY, kColumnX };

std::uint64_t plane_key(Plane p, std::uint32_t plane, std::uint32_t row,
                        std::uint32_t pos) {
  switch (p) {
    case Plane::kLayer:
      return key3(pos, row, plane);
    case Plane::kRowY:
      return key3(pos, plane, row);
    case Plane::kColumnX:
      break;
  }
  return key3(plane, pos, row);
}

/// Buffers the crossing sweeps reuse from plane to plane.
struct CrossScratch {
  std::vector<std::uint32_t> pos;
  std::vector<std::uint64_t> by_lo;  ///< (first row, column) packed
  std::vector<std::uint32_t> row_of, line_start, next;
  std::vector<std::vector<std::uint32_t>> open;
  SlotSet active;
};

/// Ids of one run array's runs in the union-find over all runs:
/// base + (from ? from[i] : i).
struct RunIds {
  const std::uint32_t* from = nullptr;
  std::uint32_t base = 0;
  std::uint32_t operator[](std::size_t i) const {
    return base + (from != nullptr ? from[i] : static_cast<std::uint32_t>(i));
  }
};

/// One crossing sweep's setup: the plane kind, whether to keep the points
/// of same-edge crossings, and the union-find (if any) that joins the two
/// runs of each.
struct CrossSpec {
  Plane plane;
  bool keep_points = false;
  Dsu* joins = nullptr;
  RunIds row_ids, col_ids;
};

/// What crossing sweeps find besides hits: same-edge crossings (each one
/// point both runs counted), and when asked their points.
struct CrossOut {
  std::vector<Hit> hits;
  std::uint64_t same = 0;
  std::vector<std::pair<std::uint64_t, EdgeId>> points;
};

/// Crossings of one plane's merged runs: rows[r0, r1) lie on a row (line)
/// and span positions, cols[c0, c1) lie at a position (line) and span rows;
/// both are sorted by (line, lo).
///
/// When the columns span few of the plane's row lines (a via spans at most
/// its layers), the columns are walked in position order, each visiting
/// the row lines it spans (found by binary search); every line keeps the
/// runs open at the current position. That costs O(rows + cols + Σ lines
/// spanned + cols log lines). Otherwise the rows, in order, query the
/// columns active there: the columns are slots of a SlotSet in position
/// order, so a query visits only active slots in its span, and a column
/// found already ended is dropped there.
void sweep_crossings(const std::vector<Run>& all_rows, std::size_t r0,
                     std::size_t r1, const std::vector<Run>& all_cols,
                     std::size_t c0, std::size_t c1, const CrossSpec& spec,
                     CrossScratch& sc, CrossOut& out) {
  const std::span<const Run> rows(all_rows.data() + r0, r1 - r0);
  const std::span<const Run> cols(all_cols.data() + c0, c1 - c0);
  const std::uint32_t pl = rows.front().group();
  auto cross = [&](std::size_t k, std::size_t i) {
    const Run& r = rows[k];
    const Run& c = cols[i];
    const std::uint64_t at = plane_key(spec.plane, pl, r.line(), c.line());
    if (c.edge != r.edge) {
      out.hits.push_back(hit_at(at, c.edge, r.edge));
      return;
    }
    ++out.same;
    if (spec.keep_points) out.points.emplace_back(at, r.edge);
    if (spec.joins != nullptr)
      spec.joins->unite(spec.row_ids[r0 + k], spec.col_ids[c0 + i]);
  };
  sc.row_of.clear();
  sc.line_start.clear();
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (i == 0 || rows[i].line() != rows[i - 1].line()) {
      sc.row_of.push_back(rows[i].line());
      sc.line_start.push_back(static_cast<std::uint32_t>(i));
    }
  sc.line_start.push_back(static_cast<std::uint32_t>(rows.size()));
  // The row lines a column spans, [l0, l1) in row_of.
  auto spanned = [&](const Run& c) -> std::pair<std::size_t, std::size_t> {
    return {static_cast<std::size_t>(
                std::lower_bound(sc.row_of.begin(), sc.row_of.end(), c.lo()) -
                sc.row_of.begin()),
            static_cast<std::size_t>(
                std::upper_bound(sc.row_of.begin(), sc.row_of.end(), c.hi) -
                sc.row_of.begin())};
  };
  const std::size_t budget = 4 * (rows.size() + cols.size());
  std::size_t visits = sc.row_of.size() * cols.size();  // at most
  if (visits > budget) {
    visits = 0;
    for (const Run& c : cols) {
      const auto [l0, l1] = spanned(c);
      visits += l1 - l0;
    }
  }
  if (visits <= budget) {
    const std::size_t lines = sc.row_of.size();
    sc.next.assign(sc.line_start.begin(), sc.line_start.end() - 1);
    if (sc.open.size() < lines) sc.open.resize(lines);
    for (std::size_t l = 0; l < lines; ++l) sc.open[l].clear();
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const std::uint32_t pos = cols[c].line();
      const auto [l0, l1] = spanned(cols[c]);
      for (std::size_t l = l0; l < l1; ++l) {
        std::vector<std::uint32_t>& open = sc.open[l];
        for (; sc.next[l] < sc.line_start[l + 1] &&
               rows[sc.next[l]].lo() <= pos;
             ++sc.next[l])
          open.push_back(sc.next[l]);
        // Drops the open rows that end before the column, crosses the rest.
        std::size_t kept = 0;
        for (const std::uint32_t k : open)
          if (rows[k].hi >= pos) {
            open[kept++] = k;
            cross(k, c);
          }
        open.resize(kept);
      }
    }
    return;
  }
  sc.pos.resize(cols.size());
  sc.by_lo.resize(cols.size());
  for (std::uint32_t i = 0; i < cols.size(); ++i) {
    sc.pos[i] = cols[i].line();
    sc.by_lo[i] = std::uint64_t{cols[i].lo()} << 32 | i;
  }
  std::sort(sc.by_lo.begin(), sc.by_lo.end());
  sc.active.reset_size(cols.size());
  std::size_t entered = 0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const std::uint32_t row = rows[k].line();
    for (; entered < sc.by_lo.size() && sc.by_lo[entered] >> 32 <= row;
         ++entered)
      sc.active.set(sc.by_lo[entered] & 0xffffffffu);
    const auto first = static_cast<std::size_t>(
        std::lower_bound(sc.pos.begin(), sc.pos.end(), rows[k].lo()) -
        sc.pos.begin());
    for (std::size_t i = sc.active.next(first);
         i != kNpos && sc.pos[i] <= rows[k].hi; i = sc.active.next(i + 1)) {
      if (cols[i].hi < row) {
        sc.active.reset(i);
        continue;
      }
      cross(k, i);
    }
  }
}

/// All crossings of `rows` with `cols` (both sorted by key, grouped by
/// plane), appended to `out` in plane order.
void cross_planes(const std::vector<Run>& rows, const std::vector<Run>& cols,
                  const CrossSpec& spec, CrossOut& out) {
  CrossScratch sc;
  std::size_t planes = 0;
  for (std::size_t i = 0, j = 0; i < rows.size() && j < cols.size();) {
    const std::uint32_t a = rows[i].group();
    const std::uint32_t b = cols[j].group();
    if (a < b) {
      i = plane_end(rows, i, a);
    } else if (b < a) {
      j = plane_end(cols, j, b);
    } else {
      if (planes++ % kPollPlanes == 0) poll_cancellation_block("check");
      const std::size_t i1 = plane_end(rows, i, a);
      const std::size_t j1 = plane_end(cols, j, b);
      sweep_crossings(rows, i, i1, cols, j, j1, spec, sc, out);
      i = i1;
      j = j1;
    }
  }
}

/// A registered node box in sweep coordinates: lines [s_lo, s_hi] along the
/// sweep, [lo, hi] across it.
struct Rect {
  std::uint32_t z, s_lo, s_hi, lo, hi;
  std::uint32_t box;
};

/// One box layer's boxes swept line by line: boxes enter at their first
/// line and leave after their last, and a claim (an interval on the current
/// line) meets the active boxes whose span overlaps its own. Active boxes
/// are kept in span order. When the boxes are pairwise disjoint, the spans
/// active on one line are too, so a cursor that moves forward through the
/// claims (given in start order) visits only the boxes a claim meets.
class BoxSweep {
 public:
  BoxSweep(std::span<const Rect> rects, bool disjoint)
      : rects_(rects), disjoint_(disjoint), by_end_(rects.size()) {
    std::iota(by_end_.begin(), by_end_.end(), 0u);
    radix_sort(by_end_, [&](std::uint32_t i) { return rects_[i].s_hi; });
  }

  /// Moves on to line `s` (lines only ever grow) and rewinds the cursor.
  /// True iff some box covers the line.
  bool advance(std::uint32_t s) {
    for (; entered_ < rects_.size() && rects_[entered_].s_lo <= s;
         ++entered_) {
      const Active a{rects_[entered_].lo, rects_[entered_].hi,
                     static_cast<std::uint32_t>(entered_)};
      active_.insert(std::upper_bound(active_.begin(), active_.end(), a), a);
    }
    if (left_ < by_end_.size() && rects_[by_end_[left_]].s_hi < s) {
      // A row of boxes tends to end on one line: drop them in one pass.
      while (left_ < by_end_.size() && rects_[by_end_[left_]].s_hi < s)
        ++left_;
      std::erase_if(active_, [&](const Active& a) {
        return rects_[a.rect].s_hi < s;
      });
    }
    cursor_ = 0;
    return !active_.empty();
  }
  /// Starts a new run of claims in start order on the current line.
  void rewind() { cursor_ = 0; }

  template <typename Fn>
  void meet(std::uint32_t lo, std::uint32_t hi, Fn&& fn) {
    if (disjoint_)
      while (cursor_ < active_.size() && active_[cursor_].hi < lo) ++cursor_;
    for (std::size_t i = cursor_; i < active_.size() && active_[i].lo <= hi;
         ++i)
      if (active_[i].hi >= lo) fn(rects_[active_[i].rect]);
  }

 private:
  struct Active {
    std::uint32_t lo, hi, rect;
    auto operator<=>(const Active&) const = default;
  };
  std::span<const Rect> rects_;  ///< sorted by first line
  bool disjoint_;
  std::vector<std::uint32_t> by_end_;
  std::vector<Active> active_;  ///< sorted by (lo, rect)
  std::size_t entered_ = 0, left_ = 0, cursor_ = 0;
};

/// One finding of the occupancy phase; sorted by (point, edge, edge2).
struct Finding {
  std::uint64_t at;  ///< key3(x, y, z)
  EdgeId edge, edge2;
  Code code;
  NodeId node;
};

/// Terminal theft: each record's claim on a box layer against the
/// registered boxes there, swept along rows (y) for horizontal runs and via
/// points and along columns (x) for vertical runs. The walks hand over
/// each plane's runs before merging them, so the claims are the records',
/// one per record and box layer, and each (record, foreign box) pair meets
/// once. Thefts go to `found`; `touches` marks which endpoint boxes each
/// edge's claims meet.
class TheftSweeps {
 public:
  TheftSweeps(const Graph& g, const LayoutGeometry& geom,
              const FrameResult& fr, std::vector<Finding>& found,
              std::vector<std::uint8_t>& touches)
      : g_(g),
        geom_(geom),
        found_(found),
        touches_(touches),
        first_(geom.num_layers + std::size_t{1}, 0) {
    for (std::uint32_t bi : fr.by_row) {  // rows come sorted by the frame
      const NodeBox& b = geom.boxes[bi];
      rects_[0].push_back(
          {b.layer, b.y, b.y + b.h - 1, b.x, b.x + b.w - 1, bi});
      rects_[1].push_back(
          {b.layer, b.x, b.x + b.w - 1, b.y, b.y + b.h - 1, bi});
    }
    radix_sort(rects_[1], [](const Rect& r) {
      return std::uint64_t{r.z} << 32 | r.s_lo;
    });
    for (std::size_t a = 0; a < 2; ++a) {
      const std::span<const Rect> all(rects_[a]);
      for (std::size_t i = 0, j = 0; i < all.size(); i = j) {
        while (j < all.size() && all[j].z == all[i].z) ++j;
        sweeps_[a].emplace_back(all.subspan(i, j - i), !fr.boxes_overlap);
        if (a == 0) layers_.push_back(all[i].z);
      }
    }
    for (std::size_t z = 0, k = 0; z < first_.size(); ++z) {
      while (k < layers_.size() && layers_[k] < z) ++k;
      first_[z] = static_cast<std::uint32_t>(k);
    }
  }
  TheftSweeps(const TheftSweeps&) = delete;
  TheftSweeps& operator=(const TheftSweeps&) = delete;

  /// The unmerged horizontal runs and via columns of y-plane `y`.
  void row(std::uint32_t y, std::span<const Run> hs, std::span<const Run> zs) {
    if (!advance(0, y)) return;
    for (const Run& r : hs)  // by layer, then x
      if (const std::size_t k = box_layer(r.line()); k != kNpos)
        claim(0, k, r.lo(), r.hi, r.edge, y);
    for (BoxSweep& s : sweeps_[0]) s.rewind();
    for (const Run& r : zs)  // by x: per layer, in x order too
      for (std::size_t k = first_[r.lo()];
           k < layers_.size() && layers_[k] <= r.hi; ++k)
        claim(0, k, r.line(), r.line(), r.edge, y);
  }

  /// The unmerged vertical runs of x-plane `x`.
  void column(std::uint32_t x, std::span<const Run> vs) {
    if (!advance(1, x)) return;
    for (const Run& r : vs)
      if (const std::size_t k = box_layer(r.line()); k != kNpos)
        claim(1, k, r.lo(), r.hi, r.edge, x);
  }

 private:
  /// Index of `layer` in layers_, or kNpos if it holds no box.
  [[nodiscard]] std::size_t box_layer(std::uint32_t layer) const {
    const std::size_t k = first_[layer];
    return k < layers_.size() && layers_[k] == layer ? k : kNpos;
  }

  bool advance(std::size_t axis, std::uint32_t line) {
    bool any = false;
    for (BoxSweep& s : sweeps_[axis]) any |= s.advance(line);
    return any;
  }

  void claim(std::size_t axis, std::size_t k, std::uint32_t lo,
             std::uint32_t hi, EdgeId e, std::uint32_t line) {
    sweeps_[axis][k].meet(lo, hi, [&](const Rect& r) {
      const NodeId node = geom_.boxes[r.box].node;
      const Edge& ed = g_.edge(e);
      if (node == ed.u || node == ed.v) {
        touches_[e] |= (node == ed.u ? 1 : 0) | (node == ed.v ? 2 : 0);
        return;
      }
      const std::uint32_t across = std::max(lo, r.lo);
      found_.push_back({axis == 0 ? key3(across, line, r.z)
                                  : key3(line, across, r.z),
                        e, kNoId, Code::kTerminalTheft, node});
    });
  }

  const Graph& g_;
  const LayoutGeometry& geom_;
  std::vector<Finding>& found_;
  std::vector<std::uint8_t>& touches_;
  std::array<std::vector<Rect>, 2> rects_;  ///< [0] rows, [1] columns
  std::vector<std::uint32_t> layers_;       ///< the box layers, ascending
  std::vector<std::uint32_t> first_;  ///< layer -> first box layer at or above
  std::array<std::vector<BoxSweep>, 2> sweeps_;  ///< per axis and box layer
};

struct Occupancy {
  std::vector<Diagnostic> diags;
  std::uint64_t points = 0;
  std::uint64_t runs = 0;     ///< wire runs and via columns swept
  std::uint64_t records = 0;  ///< segments and vias of frame-valid edges
  /// Per edge, under kBlocking (where the claims are exactly the points
  /// connectivity sees; empty otherwise): 1 when the edge's runs are all
  /// joined through points they share, which proves it connected.
  std::vector<char> joined;
  /// Per edge: bit 0 / bit 1 set when a claim of the edge meets the
  /// registered box of endpoint u / v.
  std::vector<std::uint8_t> touches;
};

/// The run arrays one thread's checks reuse: layouts checked back to back
/// (the jobs of a sweep) would otherwise fault in fresh pages on every
/// pass, about a fifth of a sweep's check time. Emptied per check, never
/// shrunk. The smaller per-check arrays stay local: kept per thread as
/// well, they raised a four-worker sweep's peak RSS by about a quarter.
struct RunBuffers {
  std::vector<Run> hs, vs, zs, scratch;
};

RunBuffers& run_buffers() {
  thread_local RunBuffers buffers;
  return buffers;
}

/// Phase 2: collisions, terminal thefts and the distinct claim count. The
/// runs are collected and sorted, then met in two ordered walks: over the
/// y-planes of the horizontal runs and via columns, and over the x-planes
/// of the vertical runs and the via columns regrouped by x. Each plane's
/// runs are claimed against the boxes, merged along their lines and
/// crossed with the other kind while they are in cache. Each step is a span
/// under `check.occupancy`.
Occupancy scan_occupancy(const Graph& g, const LayoutGeometry& geom,
                         const FrameResult& fr, ViaRule rule) {
  auto valid = [&](EdgeId e) {
    return e < g.num_edges() && fr.edge_frame_ok[e] != 0;
  };
  RunBuffers& buf = run_buffers();
  std::vector<Run>& hs = buf.hs;
  std::vector<Run>& vs = buf.vs;
  std::vector<Run>& zs = buf.zs;
  std::array<Digits, 4> digits;
  auto& [dh, dv, dz, dzc] = digits;
  // Frame-valid records lie inside the grid, so its extent bounds the keys.
  const std::uint32_t w = std::max<std::uint32_t>(geom.width, 1) - 1;
  const std::uint32_t h = std::max<std::uint32_t>(geom.height, 1) - 1;
  const std::uint32_t layers = std::max<std::uint32_t>(geom.num_layers, 1);
  const DenseKey kh(h, 1, layers, 0, w);
  const DenseKey kv(w, 1, layers, 0, h);
  const DenseKey kz(h, 0, w, 1, layers);
  Occupancy out;
  std::vector<std::uint8_t> wires_on(geom.num_layers + std::size_t{1}, 0);
  {
    // A via claims its whole column (kBlocking) or its two ends
    // (kTransparent), as one or two runs along z.
    obs::Span step("check.occupancy.collect");
    hs.clear();
    vs.clear();
    zs.clear();
    dh.reset(kh.bits);
    dv.reset(kv.bits);
    dz.reset(kz.bits);
    auto add_via = [&](const Via& v, std::uint32_t z, std::uint32_t hi) {
      zs.push_back({key3(z, v.x, v.y), hi, v.edge});
      dz.add(kz(v.y, v.x, z));
    };
    for (const WireSeg& s : geom.segs) {
      if (!valid(s.edge)) continue;
      if (s.y1 == s.y2) {
        hs.push_back({key3(s.x1, s.layer, s.y1), s.x2, s.edge});
        dh.add(kh(s.y1, s.layer, s.x1));
        wires_on[s.layer] |= 1;
      } else {
        vs.push_back({key3(s.y1, s.layer, s.x1), s.y2, s.edge});
        dv.add(kv(s.x1, s.layer, s.y1));
        wires_on[s.layer] |= 2;
      }
    }
    std::size_t vias = 0;
    for (const Via& v : geom.vias) {
      if (!valid(v.edge)) continue;
      ++vias;
      if (rule == ViaRule::kBlocking) {
        add_via(v, v.z1, v.z2);
      } else {
        add_via(v, v.z1, v.z1);
        if (v.z2 != v.z1) add_via(v, v.z2, v.z2);
      }
    }
    out.runs = hs.size() + vs.size() + zs.size();
    out.records = hs.size() + vs.size() +
                  (rule == ViaRule::kBlocking ? zs.size() : vias);
    step.arg("records", out.runs);
  }
  {
    obs::Span step("check.occupancy.sort");
    step.arg("records", out.runs);
    radix_passes(hs, kh, dh, buf.scratch);
    radix_passes(vs, kv, dv, buf.scratch);
    radix_passes(zs, kz, dz, buf.scratch);
  }

  // Under kBlocking the same-edge crossings join the runs they cross, in a
  // union-find over every run: hs first, then zs, then vs, numbered by
  // their merged index (which never exceeds the unmerged one).
  const bool blocking = rule == ViaRule::kBlocking;
  Dsu union_find;
  Dsu* joins = blocking ? &union_find : nullptr;
  if (joins != nullptr) joins->reset(out.runs);
  const auto base_z = static_cast<std::uint32_t>(hs.size());
  const auto base_v = static_cast<std::uint32_t>(hs.size() + zs.size());

  std::vector<Finding> found;
  out.touches.assign(g.num_edges(), 0);
  TheftSweeps thefts(g, geom, fr, found, out.touches);
  CrossOut cross;
  CrossScratch sc;
  std::vector<std::size_t> active;  // merge_lines' scratch
  // Merges one plane's lines and counts their points; `lines` (if given)
  // counts the merged runs' line digits.
  auto merge = [&](std::vector<Run>& runs, std::size_t b, std::size_t e,
                   Axis axis, std::size_t& kept, Digits* lines) {
    const std::size_t from = kept;
    merge_lines(runs, b, e, axis, kept, active, cross.hits);
    for (std::size_t i = from; i < kept; ++i) {
      out.points += runs[i].hi - runs[i].lo() + 1;
      if (lines != nullptr) lines->add(runs[i].line());
    }
  };
  {
    // Row walk: per y-plane, claims, merges, and crossings of the
    // horizontal runs with the via columns. The merged columns' x digits
    // are counted for the regroup.
    obs::Span step("check.occupancy.rows");
    step.arg("records", hs.size() + zs.size());
    dzc.reset(std::bit_width(w));
    std::size_t ih = 0, iz = 0, kept_h = 0, kept_z = 0;
    for (std::size_t plane = 0; ih < hs.size() || iz < zs.size(); ++plane) {
      if (plane % kPollPlanes == 0) poll_cancellation_block("check");
      const std::uint32_t y = std::min(group_at(hs, ih), group_at(zs, iz));
      const std::size_t h1 = plane_end(hs, ih, y);
      const std::size_t z1 = plane_end(zs, iz, y);
      thefts.row(y, std::span(hs).subspan(ih, h1 - ih),
                 std::span(zs).subspan(iz, z1 - iz));
      const std::size_t mh = kept_h, mz = kept_z;
      merge(hs, ih, h1, Axis::kX, kept_h, nullptr);
      merge(zs, iz, z1, Axis::kZ, kept_z, &dzc);
      if (kept_h > mh && kept_z > mz)
        sweep_crossings(hs, mh, kept_h, zs, mz, kept_z,
                        {Plane::kRowY, false, joins, {nullptr, 0},
                         {nullptr, base_z}},
                        sc, cross);
      ih = h1;
      iz = z1;
    }
    hs.resize(kept_h);
    zs.resize(kept_z);
  }
  {
    // Column walk: the merged via columns regrouped by x, then per x-plane
    // of the vertical runs, claims, merges, and crossings with the vias.
    obs::Span step("check.occupancy.columns");
    step.arg("records", vs.size() + zs.size());
    Regrouped zc, tmp;
    zc.runs.swap(buf.scratch);  // the sort buffer is free again
    regroup_counted(zs, dzc, zc, tmp);
    std::size_t iv = 0, ic = 0, kept_v = 0;
    for (std::size_t plane = 0; iv < vs.size(); ++plane) {
      if (plane % kPollPlanes == 0) poll_cancellation_block("check");
      const std::uint32_t x = vs[iv].group();
      const std::size_t v1 = plane_end(vs, iv, x);
      thefts.column(x, std::span(vs).subspan(iv, v1 - iv));
      const std::size_t mv = kept_v;
      merge(vs, iv, v1, Axis::kY, kept_v, nullptr);
      while (ic < zc.runs.size() && zc.runs[ic].group() < x) ++ic;
      const std::size_t c1 = plane_end(zc.runs, ic, x);
      if (c1 > ic)
        sweep_crossings(vs, mv, kept_v, zc.runs, ic, c1,
                        {Plane::kColumnX, false, joins, {nullptr, base_v},
                         {zc.from.data(), base_z}},
                        sc, cross);
      iv = v1;
      ic = c1;
    }
    vs.resize(kept_v);
    zc.runs.swap(buf.scratch);  // keep the buffer for the next check
  }

  // Wires cross wires only on layers holding both directions, which a
  // layer-parity layout never has; cross_planes meets only those layers.
  // A point an edge claims through two kinds was counted twice above,
  // through all three thrice.
  std::vector<std::pair<std::uint64_t, EdgeId>> same_hv;
  {
    obs::Span step("check.occupancy.cross_layer");
    Regrouped hl, vl;
    if (std::find(wires_on.begin(), wires_on.end(), 3) != wires_on.end()) {
      Regrouped tmp;
      auto by_layer = [&](const std::vector<Run>& runs, Regrouped& out) {
        Digits d;
        d.reset(std::bit_width(layers));
        for (const Run& r : runs) d.add(r.line());
        regroup_counted(runs, d, out, tmp);
      };
      by_layer(hs, hl);
      by_layer(vs, vl);
    }
    step.arg("records", hl.runs.size() + vl.runs.size());
    cross_planes(hl.runs, vl.runs,
                 {Plane::kLayer, true, joins, {hl.from.data(), 0},
                  {vl.from.data(), base_v}},
                 cross);
    same_hv.swap(cross.points);
  }
  out.points -= cross.same;
  for (const auto& [at, e] : same_hv) {
    // A same-edge wire crossing that the edge's own via also claims: find
    // the edge's run on that column at or below the layer.
    const std::uint32_t x = key_x(at), y = key_y(at), z = key_z(at);
    auto it = std::upper_bound(
        zs.begin(), zs.end(), key3(z, x, y),
        [](std::uint64_t k, const Run& r) { return k < r.key; });
    while (it != zs.begin()) {
      const Run& r = *--it;
      if (r.group() != y || r.line() != x) break;
      if (r.edge != e) continue;
      if (r.hi >= z) ++out.points;
      break;
    }
  }

  // Under kBlocking the shared points also prove connectivity: an edge
  // whose merged runs all fall in one component of the same-edge crossings
  // is connected (adjacency could only join more).
  if (joins != nullptr) {
    std::vector<std::uint32_t> root(g.num_edges(), kNoId);
    out.joined.assign(g.num_edges(), 1);
    auto visit = [&](const std::vector<Run>& runs, std::uint32_t base) {
      for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::uint32_t c =
            joins->find(base + static_cast<std::uint32_t>(i));
        const EdgeId e = runs[i].edge;
        if (root[e] == kNoId)
          root[e] = c;
        else if (root[e] != c)
          out.joined[e] = 0;
      }
    };
    visit(hs, 0);
    visit(zs, base_z);
    visit(vs, base_v);
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      if (root[e] == kNoId) out.joined[e] = 0;  // unrouted
  }

  std::vector<Hit>& hits = cross.hits;
  // Each colliding edge pair is reported once, at its lowest shared point.
  std::sort(hits.begin(), hits.end(), [](const Hit& l, const Hit& r) {
    return std::tie(l.a, l.b, l.at) < std::tie(r.a, r.b, r.at);
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    if (i == 0 || hits[i].a != hits[i - 1].a || hits[i].b != hits[i - 1].b)
      found.push_back(
          {hits[i].at, hits[i].a, hits[i].b, Code::kPointCollision, kNoId});

  std::sort(found.begin(), found.end(), [](const Finding& l, const Finding& r) {
    return std::tie(l.at, l.edge, l.edge2, l.code, l.node) <
           std::tie(r.at, r.edge, r.edge2, r.code, r.node);
  });
  out.diags.reserve(found.size());
  for (const Finding& f : found)
    out.diags.push_back(at_point(key_x(f.at), key_y(f.at), key_z(f.at),
                                 {.code = f.code,
                                  .edge = f.edge,
                                  .edge2 = f.edge2,
                                  .node = f.node}));
  return out;
}

// ---- Connectivity ----------------------------------------------------------

/// The axis a record extends along (x for a single point).
std::size_t axis_of(const RecordBox& r) {
  for (std::size_t d = 0; d < 3; ++d)
    if (r.lo[d] != r.hi[d]) return d;
  return 0;
}

/// Edges with at most this many records are joined by testing all pairs.
constexpr std::size_t kDirectJoin = 16;

/// Parallel records on one axis `a`: runs on one line join when their gap
/// along it is at most 1 (they fold into blocks), and blocks on lines one
/// step apart join when they overlap.
void join_parallel(std::span<const RecordBox> recs, std::size_t a, Dsu& dsu) {
  const std::size_t p = a == 0 ? 1 : 0;
  const std::size_t q = a == 2 ? 1 : 2;
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < recs.size(); ++i)
    if (axis_of(recs[i]) == a) ids.push_back(i);
  auto line_of = [&](std::uint32_t i) {
    return std::tuple(recs[i].lo[p], recs[i].lo[q], recs[i].lo[a], i);
  };
  std::sort(ids.begin(), ids.end(), [&](std::uint32_t l, std::uint32_t r) {
    return line_of(l) < line_of(r);
  });
  struct Block {
    std::uint32_t p, q, lo, hi, rep;
  };
  std::vector<Block> blocks;
  for (std::uint32_t i : ids) {
    const RecordBox& r = recs[i];
    if (!blocks.empty() && blocks.back().p == r.lo[p] &&
        blocks.back().q == r.lo[q] && r.lo[a] <= blocks.back().hi + 1) {
      dsu.unite(blocks.back().rep, i);
      blocks.back().hi = std::max(blocks.back().hi, r.hi[a]);
    } else {
      blocks.push_back({r.lo[p], r.lo[q], r.lo[a], r.hi[a], i});
    }
  }
  auto line_begin = [&](std::uint32_t bp, std::uint32_t bq) {
    return std::partition_point(blocks.begin(), blocks.end(),
                                [&](const Block& b) {
                                  return std::pair(b.p, b.q) <
                                         std::pair(bp, bq);
                                });
  };
  for (auto it = blocks.begin(); it != blocks.end();) {
    auto end = it;
    while (end != blocks.end() && end->p == it->p && end->q == it->q) ++end;
    for (const auto& [np, nq] : {std::pair(it->p + 1, it->q),
                                 std::pair(it->p, it->q + 1)}) {
      auto i = it;
      auto j = line_begin(np, nq);
      while (i != end && j != blocks.end() && j->p == np && j->q == nq) {
        if (i->hi < j->lo) {
          ++i;
        } else if (j->hi < i->lo) {
          ++j;
        } else {
          dsu.unite(i->rep, j->rep);
          if (i->hi < j->hi)
            ++i;
          else
            ++j;
        }
      }
    }
    it = end;
  }
}

/// A record in a plane: `at` across the sweep, [lo, hi] along it.
struct Bar {
  std::uint32_t at, lo, hi, id;
};

/// Unites every horizontal with every vertical it crosses, endpoints
/// included, without listing the crossings: the active verticals, in x
/// order, are cut into blocks known to share a component, and a query
/// merges the blocks its x-range meets into one. An insertion opens at most
/// two blocks and every further block a query visits is merged away, so
/// the sweep costs O((h + v) log v).
void cross_union(std::vector<Bar> hs, const std::vector<Bar>& vs, Dsu& dsu) {
  if (hs.empty() || vs.empty()) return;
  std::sort(hs.begin(), hs.end(),
            [](const Bar& l, const Bar& r) { return l.at < r.at; });
  std::vector<std::uint32_t> by_lo(vs.size()), by_hi(vs.size());
  std::iota(by_lo.begin(), by_lo.end(), 0u);
  std::iota(by_hi.begin(), by_hi.end(), 0u);
  std::sort(by_lo.begin(), by_lo.end(), [&](std::uint32_t a, std::uint32_t b) {
    return vs[a].lo < vs[b].lo;
  });
  std::sort(by_hi.begin(), by_hi.end(), [&](std::uint32_t a, std::uint32_t b) {
    return vs[a].hi < vs[b].hi;
  });
  using Key = std::pair<std::uint32_t, std::uint32_t>;  // (x, vertical)
  std::set<Key> active, starts;
  auto open = [&](Key k) {
    const auto it = active.insert(k).first;
    const auto next = std::next(it);
    if (next != active.end()) starts.insert(*next);  // split its block
    starts.insert(k);
  };
  auto close = [&](Key k) {
    const auto it = active.find(k);
    const auto next = std::next(it);
    if (starts.erase(k) != 0 && next != active.end()) starts.insert(*next);
    active.erase(it);
  };
  std::size_t entered = 0, left = 0;
  for (const Bar& h : hs) {
    for (; entered < by_lo.size() && vs[by_lo[entered]].lo <= h.at; ++entered)
      open({vs[by_lo[entered]].at, by_lo[entered]});
    for (; left < by_hi.size() && vs[by_hi[left]].hi < h.at; ++left)
      close({vs[by_hi[left]].at, by_hi[left]});
    const auto first = active.lower_bound({h.lo, 0});
    if (first == active.end() || first->first > h.hi) continue;
    auto s = starts.upper_bound(*first);
    dsu.unite(h.id, vs[std::prev(s)->second].id);
    while (s != starts.end() && s->first <= h.hi) {
      dsu.unite(h.id, vs[s->second].id);
      s = starts.erase(s);
    }
  }
}

/// Perpendicular records on axes a < b (the planes are the third axis c):
/// records in one plane join when their in-plane gap is at most 1 — a
/// crossing once either side is stretched by 1 along its own axis — and
/// records in adjacent planes when they cross exactly.
void join_crossing(std::span<const RecordBox> recs, std::size_t a,
                   std::size_t b, Dsu& dsu) {
  const std::size_t c = 3 - a - b;
  struct Planar {
    std::uint32_t plane;
    Bar bar;
  };
  std::vector<Planar> hs, vs;
  for (std::uint32_t i = 0; i < recs.size(); ++i) {
    const RecordBox& r = recs[i];
    const std::size_t ax = axis_of(r);
    if (ax == a)
      hs.push_back({r.lo[c], {r.lo[b], r.lo[a], r.hi[a], i}});
    else if (ax == b)
      vs.push_back({r.lo[c], {r.lo[a], r.lo[b], r.hi[b], i}});
  }
  if (hs.empty() || vs.empty()) return;
  auto by_plane = [](const Planar& l, const Planar& r) {
    return l.plane < r.plane;
  };
  std::stable_sort(hs.begin(), hs.end(), by_plane);
  std::stable_sort(vs.begin(), vs.end(), by_plane);
  auto plane_bars = [](const std::vector<Planar>& in, std::uint32_t plane,
                       std::uint32_t stretch) {
    std::vector<Bar> out;
    const auto [lo, hi] = std::equal_range(
        in.begin(), in.end(), Planar{plane, {}},
        [](const Planar& l, const Planar& r) { return l.plane < r.plane; });
    for (auto it = lo; it != hi; ++it) {
      Bar bar = it->bar;
      bar.lo = bar.lo >= stretch ? bar.lo - stretch : 0;
      bar.hi += stretch;
      out.push_back(bar);
    }
    return out;
  };
  for (auto it = hs.begin(); it != hs.end();) {
    const std::uint32_t k = it->plane;
    while (it != hs.end() && it->plane == k) ++it;
    const std::vector<Bar> h = plane_bars(hs, k, 0);
    cross_union(plane_bars(hs, k, 1), plane_bars(vs, k, 0), dsu);
    cross_union(h, plane_bars(vs, k, 1), dsu);
    if (k > 0) cross_union(h, plane_bars(vs, k - 1, 0), dsu);
    cross_union(h, plane_bars(vs, k + 1, 0), dsu);
  }
}

/// Unites every pair of records that touch or are 6-adjacent. The sweeps
/// take lines only: a malformed segment, extending along two axes (the
/// frame scan keeps those from the checker), sends all pairs to the gap test.
void join_records(std::span<const RecordBox> recs, Dsu& dsu) {
  const auto n = static_cast<std::uint32_t>(recs.size());
  auto line = [](const RecordBox& r) {
    return (r.lo[0] != r.hi[0]) + (r.lo[1] != r.hi[1]) +
               (r.lo[2] != r.hi[2]) < 2;
  };
  if (n <= kDirectJoin || !std::all_of(recs.begin(), recs.end(), line)) {
    std::uint32_t joins = 0;  // n - 1 joins leave one component
    for (std::uint32_t i = 0; i < n; ++i)
      for (std::uint32_t j = i + 1; j < n; ++j)
        if (gap(recs[i], recs[j]) <= 1 && dsu.unite(i, j) && ++joins == n - 1)
          return;
    return;
  }
  for (std::size_t a = 0; a < 3; ++a) join_parallel(recs, a, dsu);
  join_crossing(recs, 0, 1, dsu);
  join_crossing(recs, 0, 2, dsu);
  join_crossing(recs, 1, 2, dsu);
}

/// Phase 3's terminal test: kEdgeMissesTerminal at the first endpoint box,
/// u's then v's, that `reaches(box, end)` denies (end 0 is u, 1 is v).
template <class Reaches>
std::optional<Diagnostic> missed_terminal(
    const Graph& g, EdgeId e, const std::vector<const NodeBox*>& box_of,
    Reaches reaches) {
  const NodeBox* const ends[] = {box_of[g.edge(e).u], box_of[g.edge(e).v]};
  for (int end = 0; end < 2; ++end)
    if (const NodeBox* b = ends[end]; b && !reaches(*b, end))
      return Diagnostic{.code = Code::kEdgeMissesTerminal,
                        .has_point = true,
                        .x = b->x,
                        .y = b->y,
                        .layer = b->layer,
                        .edge = e,
                        .node = b->node};
  return std::nullopt;
}

/// Phase 3 for one edge: at most one diagnostic (unrouted, disconnected, or
/// misses-terminal). The component holding the lowest point is the root;
/// a stranded record is named by its lowest corner.
std::optional<Diagnostic> verify_edge(const Graph& g, EdgeId e,
                                      std::span<const RecordBox> recs,
                                      const std::vector<const NodeBox*>& box_of,
                                      Dsu& dsu) {
  if (recs.empty()) return Diagnostic{.code = Code::kEdgeUnrouted, .edge = e};
  dsu.reset(recs.size());
  join_records(recs, dsu);
  auto corner = [&](std::size_t i) {
    return key3(recs[i].lo[0], recs[i].lo[1], recs[i].lo[2]);
  };
  std::size_t lowest = 0;
  for (std::size_t i = 1; i < recs.size(); ++i)
    if (corner(i) < corner(lowest)) lowest = i;
  const std::uint32_t root = dsu.find(static_cast<std::uint32_t>(lowest));
  std::uint64_t stranded = ~std::uint64_t{0};
  for (std::size_t i = 0; i < recs.size(); ++i)
    if (dsu.find(static_cast<std::uint32_t>(i)) != root)
      stranded = std::min(stranded, corner(i));
  if (stranded != ~std::uint64_t{0})
    return at_point(key_x(stranded), key_y(stranded), key_z(stranded),
                    {.code = Code::kEdgeDisconnected, .edge = e});

  return missed_terminal(g, e, box_of, [&](const NodeBox& b, int) {
    return std::any_of(recs.begin(), recs.end(),
                       [&](const RecordBox& r) { return meets(r, b); });
  });
}

}  // namespace

std::int64_t gap(const RecordBox& a, const RecordBox& b) {
  std::int64_t sum = 0;
  for (std::size_t d = 0; d < 3; ++d)
    sum += std::max<std::int64_t>(
        {0, std::int64_t{a.lo[d]} - b.hi[d], std::int64_t{b.lo[d]} - a.hi[d]});
  return sum;
}

bool meets(const RecordBox& r, const NodeBox& b) {
  if (b.layer < r.lo[2] || b.layer > r.hi[2]) return false;
  const std::uint32_t xe = b.x + b.w;
  const std::uint32_t ye = b.y + b.h;
  return b.x < xe && r.lo[0] < xe && r.hi[0] >= b.x && b.y < ye &&
         r.lo[1] < ye && r.hi[1] >= b.y;
}

bool connected(std::span<const RecordBox> recs) {
  Dsu dsu;
  dsu.reset(recs.size());
  join_records(recs, dsu);
  // Unions keep the lower index as root, so one component is rooted at 0.
  for (std::uint32_t i = 0; i < recs.size(); ++i)
    if (dsu.find(i) != 0) return false;
  return true;
}

Checker::Checker(const Graph& g, const LayoutGeometry& geom, CheckOptions opt)
    : g_(g), geom_(geom), opt_(opt) {}

CheckReport Checker::check() {
  DiagnosticSink sink(1);
  return check(sink);
}

CheckReport Checker::check(DiagnosticSink& sink) {
  obs::Span span("check");
  const auto t0 = std::chrono::steady_clock::now();
  CheckReport rep;
  Reporter reporter{sink, 0, {}};
  auto finalize = [&]() -> CheckReport& {
    rep.ok = reporter.found == 0;
    if (!rep.ok) rep.error = reporter.first.to_string();
    rep.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    obs::gauge_set("grid.points", static_cast<double>(rep.points));
    obs::gauge_max("grid.peak_occupancy", static_cast<double>(rep.points));
    return rep;
  };

  if (geom_.width > kCoordMax || geom_.height > kCoordMax ||
      geom_.num_layers > kCoordMax) {
    reporter({.code = Code::kCoordRange});
    return finalize();
  }

  // Phase 1: frame scan.
  FrameResult fr;
  {
    obs::Span phase("check.frame");
    phase.arg("records", geom_.boxes.size() + geom_.segs.size() +
                             geom_.vias.size());
    frame_scan(g_, geom_, reporter, fr);
  }
  if (sink.full()) return finalize();

  // Phase 2: occupancy.
  Occupancy occ;
  {
    obs::Span phase("check.occupancy");
    occ = scan_occupancy(g_, geom_, fr, opt_.via_rule);
    phase.arg("records", occ.runs);
    phase.arg("points", occ.points);
    rep.points = occ.points;
    for (Diagnostic& d : occ.diags) reporter(std::move(d));
  }
  if (sink.full()) return finalize();

  // Phase 3: connectivity. An edge the occupancy sweeps proved connected,
  // with both endpoint boxes registered, only needs its terminal test from
  // the box contacts; every other frame-valid edge runs the record-level
  // union-find.
  obs::Span phase("check.connectivity");
  const std::uint32_t num_edges = g_.num_edges();
  auto box_known = [&](NodeId n) {
    return fr.box_of[n] == nullptr || fr.box_registered[n] != 0;
  };
  std::vector<std::uint32_t> slot(num_edges, kNoId);  // index among slow
  std::uint32_t slow = 0;  // edges that need the union-find
  for (EdgeId e = 0; e < num_edges; ++e) {
    if (!fr.edge_frame_ok[e]) continue;  // frame already reported
    const Edge& ed = g_.edge(e);
    if (occ.joined.empty() || !occ.joined[e] || !box_known(ed.u) ||
        !box_known(ed.v))
      slot[e] = slow++;
  }
  std::vector<std::uint32_t> first(slow + std::size_t{1}, 0);
  auto slow_of = [&](EdgeId e) { return e < num_edges ? slot[e] : kNoId; };
  if (slow != 0) {
    for (const WireSeg& s : geom_.segs)
      if (const std::uint32_t i = slow_of(s.edge); i != kNoId) ++first[i + 1];
    for (const Via& v : geom_.vias)
      if (const std::uint32_t i = slow_of(v.edge); i != kNoId) ++first[i + 1];
    for (std::size_t i = 0; i < slow; ++i) first[i + 1] += first[i];
  }
  std::vector<RecordBox> recs(first.back());
  if (slow != 0) {
    std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
    for (const WireSeg& s : geom_.segs)
      if (const std::uint32_t i = slow_of(s.edge); i != kNoId)
        recs[fill[i]++] = RecordBox::of(s);
    for (const Via& v : geom_.vias)
      if (const std::uint32_t i = slow_of(v.edge); i != kNoId)
        recs[fill[i]++] = RecordBox::of(v);
  }
  phase.arg("records", occ.records);
  phase.arg("edges", num_edges);
  phase.arg("joined", recs.size());  // by the record-level union-find
  Dsu dsu;
  for (EdgeId e = 0; e < num_edges; ++e) {
    if (!fr.edge_frame_ok[e]) continue;
    if (const std::uint32_t i = slot[e]; i != kNoId) {
      poll_cancellation("check");
      const std::span<const RecordBox> mine(recs.data() + first[i],
                                            first[i + 1] - first[i]);
      if (auto d = verify_edge(g_, e, mine, fr.box_of, dsu))
        reporter(std::move(*d));
      continue;
    }
    // Connected: the terminal test, from the box contacts.
    auto touched = [&](const NodeBox&, int end) {
      return ((occ.touches[e] >> end) & 1) != 0;
    };
    if (auto d = missed_terminal(g_, e, fr.box_of, touched))
      reporter(std::move(*d));
  }
  return finalize();
}

}  // namespace mlvl
