// Fig. 6 — Forecasting Horizon Evaluation: predicted vs actual BusTracker
// workload under 60-minute, 12-hour, and 1-day horizons (interval 10 min).
// Prints aligned (time, actual, predicted) rows per horizon; the expected
// shape is a close match at 60 minutes that progressively loses the sudden
// spikes as the horizon grows.

#include <cstdio>

#include "bench_util.h"
#include "common/table_printer.h"

using namespace dbaugur;
using namespace dbaugur::bench;

int main() {
  Dataset ds = MakeBusTrackerDataset();
  struct Config {
    const char* label;
    size_t horizon;  // in 10-minute steps
  };
  const Config configs[] = {{"60-minutes", 6}, {"12-hours", 72}, {"1-day", 144}};
  for (const Config& cfg : configs) {
    models::ForecasterOptions opts = BenchOptions(cfg.horizon);
    // DBAugur full ensemble: WFGAN (more epochs, see fig5) + TCN + MLP.
    auto wfgan = FitAndScore("WFGAN", ds, BenchOptions(cfg.horizon, 20));
    auto tcn = FitAndScore("TCN", ds, opts);
    auto mlp = FitAndScore("MLP", ds, opts);
    CheckOk(wfgan.status(), "WFGAN");
    CheckOk(tcn.status(), "TCN");
    CheckOk(mlp.status(), "MLP");
    ensemble::EnsembleOptions eopts;
    ensemble::TimeSensitiveEnsemble ens(eopts);
    ens.AddMember(std::make_unique<ensemble::SharedMember>(wfgan->first.get()));
    ens.AddMember(std::make_unique<ensemble::SharedMember>(tcn->first.get()));
    ens.AddMember(std::make_unique<ensemble::SharedMember>(mlp->first.get()));
    CheckOk(ens.Fit(ds.train()), "ensemble fit");
    auto eval = ensemble::EvaluateOnline(ens, ds.values, ds.train_size,
                                         opts.window, cfg.horizon);
    CheckOk(eval.status(), "evaluate");
    auto mse = ts::MSE(eval->predicted, eval->actual);
    std::printf("=== Fig. 6: horizon %s (MSE %.1f) ===\n", cfg.label, *mse);
    TablePrinter table({"t (hours into test)", "actual", "DBAugur predicted"});
    // Print every 6th point (hourly) over the first two test days.
    for (size_t i = 0; i < eval->predicted.size() && i < 288; i += 6) {
      double hours = static_cast<double>(i) / 6.0;
      table.AddRow({TablePrinter::Fmt(hours, 1),
                    TablePrinter::Fmt(eval->actual[i], 0),
                    TablePrinter::Fmt(eval->predicted[i], 0)});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Expected (paper Fig. 6): tight tracking incl. spikes at 60 min;\n"
      "stable trend but sluggish response to sudden changes at 12 h; shape\n"
      "only at 1 day.\n");
  return 0;
}
