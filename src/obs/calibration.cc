#include "obs/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>

#include "obs/json.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace fastt {
namespace {

constexpr size_t kPostmortemTopK = 5;

// The rows of `rows` with the largest |rel_err|, largest first, ties in list
// order; at most kReportedResiduals of them.
template <typename Row>
std::vector<const Row*> LargestRelErr(const std::vector<Row>& rows) {
  std::vector<const Row*> top;
  top.reserve(rows.size());
  for (const Row& r : rows) top.push_back(&r);
  const size_t n = std::min(top.size(), kReportedResiduals);
  std::partial_sort(top.begin(), top.begin() + static_cast<std::ptrdiff_t>(n),
                    top.end(), [](const Row* a, const Row* b) {
                      const double ea = std::fabs(a->rel_err);
                      const double eb = std::fabs(b->rel_err);
                      return ea != eb ? ea > eb : a < b;
                    });
  top.resize(n);
  return top;
}

ErrorStats StatsOverAbsRelErrors(std::vector<double> abs_rel) {
  ErrorStats stats;
  stats.n = static_cast<int>(abs_rel.size());
  if (abs_rel.empty()) return stats;
  const SampleStats s = ComputeSampleStats(std::move(abs_rel));
  stats.max = s.max;
  stats.p90 = s.p90;
  stats.p50 = s.p50;
  return stats;
}

std::string Pct(double x) {
  if (!std::isfinite(x)) return "-";
  return StrFormat("%.1f%%", 100.0 * x);
}

std::string Route(DeviceId src, DeviceId dst) {
  return StrFormat("gpu%d->gpu%d", src, dst);
}

const char* Decision(const CalibrationRound& r) {
  return r.committed ? "commit" : r.oom ? "rollback (OOM)" : "rollback (slower)";
}

std::string MarginCell(const StabilityStats& s) {
  if (s.new_entries) return "new entries";
  return StrFormat("%+.3f", s.margin);
}

}  // namespace

CalibrationRound ComputeCalibration(const Graph& g,
                                    const std::vector<double>& predicted_op_s,
                                    const std::vector<DeviceId>& placement,
                                    const CommCostModel& comm_before,
                                    const SimResult& realized) {
  CalibrationRound cal;

  // ---- computation: per-op join -------------------------------------------
  std::vector<double> comp_abs_rel;
  for (OpId id : g.LiveOps()) {
    const size_t slot = static_cast<size_t>(id);
    if (slot >= realized.op_records.size() ||
        realized.op_records[slot].device == kInvalidDevice)
      continue;
    OpResidual r;
    r.name = g.op(id).name;
    r.device = slot < placement.size() ? placement[slot] : kInvalidDevice;
    r.predicted_s = slot < predicted_op_s.size() ? predicted_op_s[slot] : 0.0;
    r.realized_s = realized.op_records[slot].duration();
    r.abs_err_s = std::fabs(r.predicted_s - r.realized_s);
    r.rel_err = r.realized_s > 0.0
                    ? (r.predicted_s - r.realized_s) / r.realized_s
                    : 0.0;
    if (r.realized_s > 0.0) comp_abs_rel.push_back(std::fabs(r.rel_err));
    cal.residuals.push_back(std::move(r));
  }
  cal.comp = StatsOverAbsRelErrors(std::move(comp_abs_rel));

  // ---- communication: per-transfer join -----------------------------------
  std::vector<double> comm_abs_rel;
  struct PairAgg {
    int n = 0;
    double sum_rel = 0.0;
  };
  std::map<std::pair<DeviceId, DeviceId>, PairAgg> per_pair;
  for (const TransferRecord& t : realized.transfers) {
    CommResidual r;
    r.src = t.src;
    r.dst = t.dst;
    r.bytes = t.bytes;
    r.predicted_s = comm_before.Estimate(t.src, t.dst, t.bytes);
    r.realized_s = t.duration();
    r.rel_err = r.realized_s > 0.0
                    ? (r.predicted_s - r.realized_s) / r.realized_s
                    : 0.0;
    if (r.realized_s > 0.0) {
      comm_abs_rel.push_back(std::fabs(r.rel_err));
      PairAgg& agg = per_pair[{t.src, t.dst}];
      ++agg.n;
      agg.sum_rel += std::fabs(r.rel_err);
    }
    cal.comm_residuals.push_back(r);
  }
  cal.comm = StatsOverAbsRelErrors(std::move(comm_abs_rel));

  // ---- per-pair regression diagnostics ------------------------------------
  for (const std::pair<DeviceId, DeviceId>& pair : comm_before.KnownPairs()) {
    const auto fit = comm_before.Fit(pair.first, pair.second);
    if (!fit) continue;
    CommPairFitRecord rec;
    rec.src = pair.first;
    rec.dst = pair.second;
    rec.intercept_s = fit->intercept;
    rec.slope_s_per_byte = fit->slope;
    rec.r2 = fit->r2;
    rec.samples = static_cast<int64_t>(fit->samples);
    auto it = per_pair.find(pair);
    if (it != per_pair.end()) {
      rec.round_transfers = it->second.n;
      rec.mean_rel_err = it->second.sum_rel / it->second.n;
    }
    cal.pairs.push_back(rec);
  }

  // ---- post-mortem candidates ---------------------------------------------
  std::vector<OpResidual> worst = cal.residuals;
  std::sort(worst.begin(), worst.end(),
            [](const OpResidual& a, const OpResidual& b) {
              if (a.abs_err_s != b.abs_err_s) return a.abs_err_s > b.abs_err_s;
              return a.name < b.name;
            });
  if (worst.size() > kPostmortemTopK) worst.resize(kPostmortemTopK);
  cal.postmortem.top_mispredicted = std::move(worst);
  return cal;
}

std::string RenderCalibrationSummary(
    const std::vector<CalibrationRound>& rounds) {
  TablePrinter table({"round", "comp p50", "comp p90", "comp max", "comm p50",
                      "comm p90", "stab margin", "decision"});
  for (const CalibrationRound& r : rounds)
    table.AddRow({StrFormat("%d", r.round), Pct(r.comp.p50), Pct(r.comp.p90),
                  Pct(r.comp.max), Pct(r.comm.p50), Pct(r.comm.p90),
                  MarginCell(r.stability), Decision(r)});
  return table.Render();
}

std::string RenderCalibrationReport(
    const std::vector<CalibrationRound>& rounds) {
  std::string out = "cost-model calibration (predicted vs realized, per "
                    "pre-training round):\n";
  out += RenderCalibrationSummary(rounds);

  // Makespan-level view: the error the rollback rule actually acts on.
  out += "\nround makespans:\n";
  TablePrinter mk({"round", "predicted", "measured", "rel err", "ops joined",
                   "transfers"});
  for (const CalibrationRound& r : rounds)
    mk.AddRow({StrFormat("%d", r.round),
               StrFormat("%.3f ms", r.predicted_makespan_s * 1e3),
               StrFormat("%.3f ms", r.measured_makespan_s * 1e3),
               StrFormat("%+.1f%%", 100.0 * r.makespan_rel_err),
               StrFormat("%d", r.comp.n), StrFormat("%d", r.comm.n)});
  out += mk.Render();

  // Comm-regression fits of the last round, with drift vs. the previous
  // round's parameters: a stable search should show slopes converging.
  if (!rounds.empty() && !rounds.back().pairs.empty()) {
    const CalibrationRound& last = rounds.back();
    const std::vector<CommPairFitRecord>* prev = nullptr;
    if (rounds.size() >= 2) prev = &rounds[rounds.size() - 2].pairs;
    out += StrFormat("\ncomm regressions (round %d):\n", last.round);
    TablePrinter pairs({"route", "intercept", "slope", "R2", "samples",
                       "round err", "slope drift"});
    for (const CommPairFitRecord& p : last.pairs) {
      std::string drift = "-";
      if (prev) {
        for (const CommPairFitRecord& q : *prev) {
          if (q.src != p.src || q.dst != p.dst) continue;
          if (q.slope_s_per_byte != 0.0)
            drift = StrFormat("%+.1f%%",
                              100.0 * (p.slope_s_per_byte -
                                       q.slope_s_per_byte) /
                                  q.slope_s_per_byte);
          break;
        }
      }
      pairs.AddRow({Route(p.src, p.dst),
                    StrFormat("%.1f us", p.intercept_s * 1e6),
                    StrFormat("%.3f ns/KB", p.slope_s_per_byte * 1e9 * 1024),
                    StrFormat("%.4f", p.r2),
                    StrFormat("%lld", (long long)p.samples),
                    p.round_transfers > 0 ? Pct(p.mean_rel_err) : "-", drift});
    }
    out += pairs.Render();
  }

  // Rollback post-mortems: the mis-predictions behind each rejected round.
  for (const CalibrationRound& r : rounds) {
    if (!r.postmortem.rolled_back) continue;
    out += StrFormat("\nrollback post-mortem, round %d (%s): top "
                     "mis-predicted ops\n",
                     r.round, r.oom ? "OOM" : "slower than incumbent");
    TablePrinter top({"op", "device", "predicted", "realized", "abs err",
                      "rel err"});
    for (const OpResidual& o : r.postmortem.top_mispredicted)
      top.AddRow({o.name, StrFormat("gpu%d", o.device),
                  StrFormat("%.4f ms", o.predicted_s * 1e3),
                  StrFormat("%.4f ms", o.realized_s * 1e3),
                  StrFormat("%.4f ms", o.abs_err_s * 1e3),
                  StrFormat("%+.1f%%", 100.0 * o.rel_err)});
    out += top.Render();
  }
  return out;
}

std::string CalibrationToJson(const std::string& model,
                              const std::vector<CalibrationRound>& rounds) {
  JsonWriter w;
  w.BeginObject();
  w.Key("fastt_calibration").Int(1);
  w.Key("model").String(model);
  w.Key("rounds").BeginArray();
  for (const CalibrationRound& r : rounds) {
    w.BeginObject();
    w.Key("round").Int(r.round);
    w.Key("committed").Bool(r.committed);
    w.Key("oom").Bool(r.oom);
    w.Key("predicted_makespan_s").Number(r.predicted_makespan_s);
    w.Key("measured_makespan_s").Number(r.measured_makespan_s);
    w.Key("makespan_rel_err").Number(r.makespan_rel_err);
    auto stats = [&](const char* key, const ErrorStats& s) {
      w.Key(key).BeginObject();
      w.Key("n").Int(s.n);
      w.Key("p50").Number(s.p50);
      w.Key("p90").Number(s.p90);
      w.Key("max").Number(s.max);
      w.EndObject();
    };
    stats("comp_rel_err", r.comp);
    stats("comm_rel_err", r.comm);
    w.Key("stability").BeginObject();
    w.Key("entries").Int(r.stability.entries);
    w.Key("max_change").Number(r.stability.max_change);
    w.Key("mean_change").Number(r.stability.mean_change);
    w.Key("stddev_change").Number(r.stability.stddev_change);
    w.Key("tolerance").Number(r.stability.tolerance);
    w.Key("margin").Number(r.stability.margin);
    w.Key("new_entries").Bool(r.stability.new_entries);
    w.Key("stable_rounds").Int(r.stability.stable_rounds);
    w.Key("patience").Int(r.stability.patience);
    w.EndObject();
    w.Key("residuals").BeginArray();
    for (const OpResidual* o : LargestRelErr(r.residuals)) {
      w.BeginObject();
      w.Key("op").String(o->name);
      w.Key("device").Int(o->device);
      w.Key("predicted_s").Number(o->predicted_s);
      w.Key("realized_s").Number(o->realized_s);
      w.Key("rel_err").Number(o->rel_err);
      w.EndObject();
    }
    w.EndArray();
    w.Key("comm_residuals").BeginArray();
    for (const CommResidual* c : LargestRelErr(r.comm_residuals)) {
      w.BeginObject();
      w.Key("src").Int(c->src);
      w.Key("dst").Int(c->dst);
      w.Key("bytes").Int(c->bytes);
      w.Key("predicted_s").Number(c->predicted_s);
      w.Key("realized_s").Number(c->realized_s);
      w.Key("rel_err").Number(c->rel_err);
      w.EndObject();
    }
    w.EndArray();
    w.Key("pairs").BeginArray();
    for (const CommPairFitRecord& p : r.pairs) {
      w.BeginObject();
      w.Key("src").Int(p.src);
      w.Key("dst").Int(p.dst);
      w.Key("intercept_s").Number(p.intercept_s);
      w.Key("slope_s_per_byte").Number(p.slope_s_per_byte);
      w.Key("r2").Number(p.r2);
      w.Key("samples").Int(p.samples);
      w.Key("round_transfers").Int(p.round_transfers);
      w.Key("mean_rel_err").Number(p.mean_rel_err);
      w.EndObject();
    }
    w.EndArray();
    w.Key("postmortem").BeginObject();
    w.Key("rolled_back").Bool(r.postmortem.rolled_back);
    w.Key("oom").Bool(r.postmortem.oom);
    w.Key("top_mispredicted").BeginArray();
    for (const OpResidual& o : r.postmortem.top_mispredicted) {
      w.BeginObject();
      w.Key("op").String(o.name);
      w.Key("device").Int(o.device);
      w.Key("predicted_s").Number(o.predicted_s);
      w.Key("realized_s").Number(o.realized_s);
      w.Key("abs_err_s").Number(o.abs_err_s);
      w.Key("rel_err").Number(o.rel_err);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace fastt
