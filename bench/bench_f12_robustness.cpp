// F12 — protocol robustness: packet loss and the negative-evidence factor.
//
// Part A: packet-loss sweep. Reproduced shape: the BP engines degrade
// gracefully (stale beliefs are still beliefs) — error rises slowly up to
// heavy loss while iteration counts stretch.
// Part B: negative-evidence ablation. Reproduced shape: without priors,
// non-link ("I can NOT hear you") factors slash the tail error (mirror
// ghosts get vetoed); with strong priors the effect shrinks because priors
// already exclude the ghosts. Part C: quasi-UDG connectivity — a noisier
// link layer than the unit disk — leaves the ordering intact.
#include "bench_common.hpp"

using namespace bnloc;
using namespace bnloc::bench;

int main() {
  const BenchConfig bc = BenchConfig::from_env();
  const ScenarioConfig base = default_scenario(bc);
  print_banner("F12", "packet loss & negative evidence", bc, base);

  BenchJson bj("F12", bc);
  std::printf("Part A: packet loss sweep\n");
  AsciiTable a({"loss", "bncl-grid mean/R", "bncl-gauss mean/R",
                "grid iters"});
  for (double loss : {0.0, 0.1, 0.2, 0.3, 0.4}) {
    GridBnclConfig gc;
    gc.transport.radio.loss = loss;
    GaussianBnclConfig xc;
    xc.transport.radio.loss = loss;
    const AggregateRow g = run_algorithm(GridBncl(gc), base, bc.trials);
    const AggregateRow x = run_algorithm(GaussianBncl(xc), base, bc.trials);
    bj.add(g, "loss=" + AsciiTable::fmt(loss, 1));
    bj.add(x, "loss=" + AsciiTable::fmt(loss, 1));
    a.add_row(AsciiTable::fmt(loss, 1),
              {g.error.mean, x.error.mean, g.iterations}, 3);
  }
  a.print(std::cout);

  std::printf("\nPart B: negative evidence x priors (bncl-grid)\n");
  AsciiTable b({"priors", "neg evidence", "mean/R", "q90/R"});
  for (PriorQuality q : {PriorQuality::none, PriorQuality::exact}) {
    for (bool neg : {false, true}) {
      ScenarioConfig cfg = base;
      cfg.prior_quality = q;
      GridBnclConfig gc;
      gc.use_negative_evidence = neg;
      const AggregateRow row = run_algorithm(GridBncl(gc), cfg, bc.trials);
      bj.add(row, std::string("priors=") + to_string(q) +
                      ",neg_evidence=" + (neg ? "on" : "off"));
      b.add_row({to_string(q), neg ? "on" : "off",
                 AsciiTable::fmt(row.error.mean, 4),
                 AsciiTable::fmt(row.error.q90, 4)});
    }
  }
  b.print(std::cout);

  std::printf("\nPart C: quasi-UDG connectivity (transition band 40%%)\n");
  AsciiTable c({"connectivity", "bncl-grid", "ls-refine", "dv-hop"});
  for (ConnectivityType conn : {ConnectivityType::unit_disk,
                                ConnectivityType::quasi_udg}) {
    ScenarioConfig cfg = base;
    cfg.radio = make_radio(base.radio.range, RangingType::log_normal,
                           base.radio.ranging.noise_factor, conn, 0.4);
    const AggregateRow g = run_algorithm(GridBncl(), cfg, bc.trials);
    const AggregateRow ls =
        run_algorithm(RefinementLocalizer(), cfg, bc.trials);
    const AggregateRow dv = run_algorithm(DvHopLocalizer(), cfg, bc.trials);
    const std::string where =
        conn == ConnectivityType::unit_disk ? "conn=unit_disk"
                                            : "conn=quasi_udg";
    bj.add(g, where);
    bj.add(ls, where);
    bj.add(dv, where);
    c.add_row({conn == ConnectivityType::unit_disk ? "unit_disk"
                                                   : "quasi_udg",
               AsciiTable::fmt(g.error.mean, 4),
               AsciiTable::fmt(ls.error.mean, 4),
               AsciiTable::fmt(dv.error.mean, 4)});
  }
  c.print(std::cout);
  return 0;
}
