#include "core/multilayer.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/cancel.hpp"
#include "core/interval.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlvl {
namespace {

constexpr std::uint32_t ceil_div(std::uint32_t a, std::uint32_t b) {
  return (a + b - 1) / b;
}

/// Wires of one node side (top or right) that leave toward smaller and toward
/// larger coordinates: counts after the first pass over the edges, the next
/// free offsets during the second.
struct SideSlots {
  std::uint32_t toward = 0;
  std::uint32_t away = 0;
};

/// Stable counting sort of items 0..keys.size()-1 by key (< buckets): on
/// return order[start[b], start[b + 1]) lists bucket b's items in item order.
void bucket_by_key(const std::vector<std::uint32_t>& keys,
                   std::uint32_t buckets, std::vector<std::uint32_t>& start,
                   std::vector<std::uint32_t>& order) {
  start.assign(buckets + 1, 0);
  for (std::uint32_t k : keys) ++start[k + 1];
  for (std::uint32_t b = 0; b < buckets; ++b) start[b + 1] += start[b];
  order.resize(keys.size());
  std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
  for (std::uint32_t i = 0; i < keys.size(); ++i) order[next[keys[i]]++] = i;
}

}  // namespace

MultilayerLayout realize(const Orthogonal2Layer& o, const RealizeOptions& opt) {
  if (opt.L < 2) throw std::invalid_argument("realize: L >= 2 required");
  // Layer numbers are stored in 16 bits (WireSeg::layer, Via::z_lo/z_hi).
  if (opt.L > std::numeric_limits<std::uint16_t>::max())
    throw std::invalid_argument("realize: L <= 65535 required");
  obs::Span span("realize");
  const Graph& g = o.graph;
  const Placement& pl = o.place;
  const std::uint32_t R = pl.rows, C = pl.cols;
  const std::uint32_t L = opt.L;
  const std::uint32_t t_h = L / 2;
  const std::uint32_t t_v = (L + 1) / 2;

  // ---- Terminal allocation -------------------------------------------------
  // Top terminals serve row edges and both ends of extra links; right
  // terminals serve column edges. At each node side, wires that leave toward
  // smaller coordinates take the lowest offsets, so that two wires sharing a
  // track and abutting at a node never overlap physically; within each class
  // offsets follow edge order. Extras count as leaving away: their ordering
  // is irrelevant because extra tracks never abut (inflated intervals).
  // Two counting passes over the edges rank every wire at both ends.
  struct Ends {
    std::uint32_t side;  ///< 0 = top, 1 = right
    bool away_u, away_v;
  };
  auto ends = [&](EdgeId e) -> Ends {
    const Edge& ed = g.edge(e);
    switch (o.kind[e]) {
      case EdgeKind::kRow:
        return {0, pl.col_of[ed.v] > pl.col_of[ed.u],
                pl.col_of[ed.u] > pl.col_of[ed.v]};
      case EdgeKind::kCol:
        return {1, pl.row_of[ed.v] > pl.row_of[ed.u],
                pl.row_of[ed.u] > pl.row_of[ed.v]};
      case EdgeKind::kExtra:
        break;
    }
    return {0, true, true};
  };
  std::vector<SideSlots> slots(2 * std::size_t(g.num_nodes()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    const Ends w = ends(e);
    SideSlots& su = slots[2 * ed.u + w.side];
    SideSlots& sv = slots[2 * ed.v + w.side];
    ++(w.away_u ? su.away : su.toward);
    ++(w.away_v ? sv.away : sv.toward);
  }
  std::uint32_t need = 2;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    SideSlots& top = slots[2 * u];
    SideSlots& right = slots[2 * u + 1];
    need = std::max(
        {need, top.toward + top.away + 1, right.toward + right.away});
    top = {0, top.toward};
    right = {0, right.toward};
  }
  const std::uint32_t S = opt.node_size ? opt.node_size : need + 1;
  if (S < need + 1)
    throw std::invalid_argument("realize: node_size too small for terminals");
  // Terminal offset of each edge at its u and v end, on the side it uses.
  std::vector<std::uint32_t> off_u(g.num_edges()), off_v(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    const Ends w = ends(e);
    SideSlots& su = slots[2 * ed.u + w.side];
    SideSlots& sv = slots[2 * ed.v + w.side];
    off_u[e] = w.away_u ? su.away++ : su.toward++;
    off_v[e] = w.away_v ? sv.away++ : sv.toward++;
  }

  // ---- Extra-link group and track assignment -------------------------------
  // An extra link routes top terminal -> horizontal run in u's row band ->
  // vertical run in a hub column band -> horizontal run in v's row band ->
  // top terminal. Hubs are shared by ~t_h extras each so the vertical width
  // contributed by extras shrinks with the layer count like everything else.
  //
  // Extras use only the paired groups [0, t_h). Intervals are measured in
  // slot space (node column j / row band i -> 2j, column band j -> 2j+1) and
  // inflated by one so abutting extras never share a physical track (their
  // junction positions are not ordered the way terminals are).
  const std::uint32_t t_pair = t_h;
  const std::size_t n_extra = o.extras.size();
  std::vector<std::uint32_t> ex_group(n_extra), ex_hub(n_extra);
  std::vector<std::uint32_t> ex_ptrack_h1(n_extra), ex_ptrack_h2(n_extra),
      ex_ptrack_v(n_extra);
  std::vector<std::uint32_t> extra_h_width(R, 0), extra_v_width(C, 0);
  if (n_extra != 0) {
    // Hub count trades horizontal-run overlap (fewer hubs = longer runs that
    // all overlap at the hub) against vertical packing (more hubs = fewer
    // vertical runs share a band). E/(4 t) hubs — about 4t extras per hub, a
    // full track per layer group each — sits at or near the optimum across
    // the families benchmarked in bench_folded/bench_butterfly/bench_cayley.
    const std::uint32_t n_hubs =
        opt.extra_hubs
            ? std::min<std::uint32_t>(C, opt.extra_hubs)
            : std::max<std::uint32_t>(
                  1, std::min<std::uint64_t>(C, n_extra / (4 * t_pair)));
    const std::uint32_t stride = std::max<std::uint32_t>(1, C / n_hubs);
    for (std::size_t i = 0; i < n_extra; ++i) {
      const Edge& ed = g.edge(o.extras[i].edge);
      const std::uint32_t mid = (pl.col_of[ed.u] + pl.col_of[ed.v]) / 2;
      ex_hub[i] =
          std::min<std::uint32_t>(C - 1, mid / stride * stride + stride / 2);
    }
    // Tracks for one bucket's runs: a left-edge pass, or without packing
    // one track per run (the paper's conservative accounting).
    auto assign = [&](const std::vector<Interval>& ivs) {
      if (opt.pack_extras) return assign_tracks_left_edge(ivs);
      TrackAssignment ta;
      ta.num_tracks = static_cast<std::uint32_t>(ivs.size());
      ta.track.resize(ivs.size());
      std::iota(ta.track.begin(), ta.track.end(), 0u);
      return ta;
    };
    std::vector<std::uint32_t> start, order;
    std::vector<Interval> ivs;

    // Per hub, colour the vertical runs with one left-edge pass and derive
    // both the layer group and the physical track from the colour — this
    // packs the hub optimally instead of fragmenting it by a fixed group
    // choice.
    bucket_by_key(ex_hub, C, start, order);
    for (std::uint32_t hub = 0; hub < C; ++hub) {
      if (start[hub] == start[hub + 1]) continue;
      ivs.clear();
      for (std::uint32_t k = start[hub]; k < start[hub + 1]; ++k) {
        const std::uint32_t i = order[k];
        const Edge& ed = g.edge(o.extras[i].edge);
        const std::uint32_t ru = pl.row_of[ed.u], rv = pl.row_of[ed.v];
        ivs.push_back(
            Interval{2 * std::min(ru, rv), 2 * std::max(ru, rv) + 2, i});
      }
      const TrackAssignment ta = assign(ivs);
      for (std::size_t k = 0; k < ivs.size(); ++k) {
        const std::uint32_t i = ivs[k].tag;
        ex_group[i] = ta.track[k] % t_pair;
        ex_ptrack_v[i] = ta.track[k] / t_pair;
      }
      extra_v_width[hub] = (ta.num_tracks + t_pair - 1) / t_pair;
    }

    // Horizontal runs: pack per (row band, group), groups fixed above. Run
    // 2i is extra i's run in u's band, run 2i + 1 the one in v's band.
    std::vector<std::uint32_t> run_key(2 * n_extra);
    for (std::size_t i = 0; i < n_extra; ++i) {
      const Edge& ed = g.edge(o.extras[i].edge);
      run_key[2 * i] = pl.row_of[ed.u] * t_pair + ex_group[i];
      run_key[2 * i + 1] = pl.row_of[ed.v] * t_pair + ex_group[i];
    }
    bucket_by_key(run_key, R * t_pair, start, order);
    for (std::uint32_t key = 0; key < R * t_pair; ++key) {
      if (start[key] == start[key + 1]) continue;
      ivs.clear();
      for (std::uint32_t k = start[key]; k < start[key + 1]; ++k) {
        const std::uint32_t tag = order[k];
        const Edge& ed = g.edge(o.extras[tag / 2].edge);
        const std::uint32_t hub_slot = 2 * ex_hub[tag / 2] + 1;
        const std::uint32_t c2 = 2 * pl.col_of[tag % 2 ? ed.v : ed.u];
        ivs.push_back(Interval{std::min(c2, hub_slot),
                               std::max(c2, hub_slot) + 1, tag});
      }
      const TrackAssignment ta = assign(ivs);
      for (std::size_t k = 0; k < ivs.size(); ++k) {
        const std::uint32_t tag = ivs[k].tag;
        (tag % 2 ? ex_ptrack_h2 : ex_ptrack_h1)[tag / 2] = ta.track[k];
      }
      const std::uint32_t b = key / t_pair;
      extra_h_width[b] = std::max(extra_h_width[b], ta.num_tracks);
    }
  }

  // ---- Physical coordinates -------------------------------------------------
  std::vector<std::uint32_t> base_h(R), base_v(C);
  std::vector<std::uint32_t> band_y(R), node_y(R), node_x(C), band_x(C);
  std::uint32_t y = 0;
  std::uint32_t wiring_h = 0, wiring_w = 0;
  for (std::uint32_t i = 0; i < R; ++i) {
    base_h[i] = o.row_tracks[i] ? ceil_div(o.row_tracks[i], t_h) : 0;
    const std::uint32_t wh = base_h[i] + extra_h_width[i];
    band_y[i] = y;
    node_y[i] = y + wh;
    y = node_y[i] + S;
    wiring_h += wh;
  }
  std::uint32_t x = 0;
  for (std::uint32_t j = 0; j < C; ++j) {
    base_v[j] = o.col_tracks[j] ? ceil_div(o.col_tracks[j], t_v) : 0;
    const std::uint32_t wv = base_v[j] + extra_v_width[j];
    node_x[j] = x;
    band_x[j] = x + S;
    x = band_x[j] + wv;
    wiring_w += wv;
  }

  MultilayerLayout ml;
  ml.L = L;
  ml.groups_h = t_h;
  ml.groups_v = t_v;
  ml.wiring_width = wiring_w;
  ml.wiring_height = wiring_h;
  LayoutGeometry& geo = ml.geom;
  geo.num_layers = static_cast<std::uint16_t>(L);
  geo.width = x;
  geo.height = y;

  // Row and column edges take 3 segments and at most 4 vias each, extra
  // links at most 5 and 6.
  const std::size_t n_paths = g.num_edges() - n_extra;
  geo.segs.reserve(3 * n_paths + 5 * n_extra);
  geo.vias.reserve(4 * n_paths + 6 * n_extra);
  geo.boxes.reserve(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    geo.boxes.push_back(
        NodeBox{node_x[pl.col_of[u]], node_y[pl.row_of[u]], S, S, u});

  auto add_h = [&](std::uint32_t xa, std::uint32_t xb, std::uint32_t yy,
                   std::uint16_t layer, EdgeId e) {
    auto [lo, hi] = std::minmax(xa, xb);
    geo.segs.push_back(WireSeg{lo, yy, hi, yy, layer, e});
  };
  auto add_v = [&](std::uint32_t xx, std::uint32_t ya, std::uint32_t yb,
                   std::uint16_t layer, EdgeId e) {
    auto [lo, hi] = std::minmax(ya, yb);
    geo.segs.push_back(WireSeg{xx, lo, xx, hi, layer, e});
  };
  auto add_via = [&](std::uint32_t xx, std::uint32_t yy, std::uint32_t za,
                     std::uint32_t zb, EdgeId e) {
    if (za == zb) return;
    geo.vias.push_back(Via{xx, yy, static_cast<std::uint16_t>(za),
                           static_cast<std::uint16_t>(zb), e});
    if (zb - za > 1 && za != 1) ml.required_rule = ViaRule::kTransparent;
  };

  std::size_t extra_idx = 0;
  bool odd_group_used = false;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    poll_cancellation("realize");
    const Edge& ed = g.edge(e);
    switch (o.kind[e]) {
      case EdgeKind::kRow: {
        const std::uint32_t row = pl.row_of[ed.u];
        const std::uint32_t grp = o.track[e] % t_h;
        const std::uint32_t pt = o.track[e] / t_h;
        const std::uint32_t wy = band_y[row] + pt;
        const std::uint16_t lh = static_cast<std::uint16_t>(2 * grp + 1);
        const std::uint16_t lv = static_cast<std::uint16_t>(2 * grp + 2);
        const std::uint32_t xu = node_x[pl.col_of[ed.u]] + off_u[e];
        const std::uint32_t xv = node_x[pl.col_of[ed.v]] + off_v[e];
        add_h(xu, xv, wy, lh, e);
        add_v(xu, wy, node_y[row], lv, e);
        add_v(xv, wy, node_y[row], lv, e);
        add_via(xu, wy, lh, lv, e);
        add_via(xv, wy, lh, lv, e);
        add_via(xu, node_y[row], 1, lv, e);
        add_via(xv, node_y[row], 1, lv, e);
        break;
      }
      case EdgeKind::kCol: {
        const std::uint32_t col = pl.col_of[ed.u];
        const std::uint32_t grp = o.track[e] % t_v;
        const std::uint32_t pt = o.track[e] / t_v;
        const std::uint32_t wx = band_x[col] + pt;
        std::uint16_t lwire, lriser;
        if (grp < t_h) {
          lriser = static_cast<std::uint16_t>(2 * grp + 1);
          lwire = static_cast<std::uint16_t>(2 * grp + 2);
        } else {
          // Odd-L unpaired vertical group on the top layer; its junction vias
          // span two boundaries (stacked-via rule).
          lwire = static_cast<std::uint16_t>(L);
          lriser = static_cast<std::uint16_t>(2 * t_h - 1);
          odd_group_used = true;
        }
        const std::uint32_t yu = node_y[pl.row_of[ed.u]] + off_u[e];
        const std::uint32_t yv = node_y[pl.row_of[ed.v]] + off_v[e];
        const std::uint32_t xeu = node_x[col] + S - 1;
        add_v(wx, yu, yv, lwire, e);
        add_h(xeu, wx, yu, lriser, e);
        add_h(xeu, wx, yv, lriser, e);
        add_via(wx, yu, lriser, lwire, e);
        add_via(wx, yv, lriser, lwire, e);
        add_via(xeu, yu, 1, lriser, e);
        add_via(xeu, yv, 1, lriser, e);
        break;
      }
      case EdgeKind::kExtra: {
        const std::uint32_t grp = ex_group[extra_idx];
        const std::uint16_t lh = static_cast<std::uint16_t>(2 * grp + 1);
        const std::uint16_t lv = static_cast<std::uint16_t>(2 * grp + 2);
        const std::uint32_t ru = pl.row_of[ed.u], rv = pl.row_of[ed.v];
        const std::uint32_t hub = ex_hub[extra_idx];
        const std::uint32_t wy1 =
            band_y[ru] + base_h[ru] + ex_ptrack_h1[extra_idx];
        const std::uint32_t wy2 =
            band_y[rv] + base_h[rv] + ex_ptrack_h2[extra_idx];
        const std::uint32_t wx =
            band_x[hub] + base_v[hub] + ex_ptrack_v[extra_idx];
        const std::uint32_t xu = node_x[pl.col_of[ed.u]] + off_u[e];
        const std::uint32_t xv = node_x[pl.col_of[ed.v]] + off_v[e];
        add_v(xu, wy1, node_y[ru], lv, e);  // source riser
        add_h(xu, wx, wy1, lh, e);          // run to the hub band
        if (wy1 != wy2) add_v(wx, wy1, wy2, lv, e);  // hub vertical run
        add_h(wx, xv, wy2, lh, e);          // run to the destination column
        add_v(xv, wy2, node_y[rv], lv, e);  // destination riser
        add_via(xu, node_y[ru], 1, lv, e);  // source terminal
        add_via(xu, wy1, lh, lv, e);
        add_via(wx, wy1, lh, lv, e);
        if (wy1 != wy2) add_via(wx, wy2, lh, lv, e);
        add_via(xv, wy2, lh, lv, e);
        add_via(xv, node_y[rv], 1, lv, e);  // destination terminal
        ++extra_idx;
        break;
      }
    }
  }
  if (odd_group_used) ml.required_rule = ViaRule::kTransparent;
  span.arg("records", geo.boxes.size() + geo.segs.size() + geo.vias.size())
      .arg("edges", g.num_edges());
  if (obs::metrics_enabled()) {
    obs::counter_add("routing.segments", geo.segs.size());
    obs::counter_add("vias.placed", geo.vias.size());
    obs::counter_add("tracks.physical",
                     std::uint64_t(wiring_w) + std::uint64_t(wiring_h));
    obs::gauge_set("layout.L", L);
    obs::gauge_set("layout.width", geo.width);
    obs::gauge_set("layout.height", geo.height);
  }
  return ml;
}

}  // namespace mlvl
