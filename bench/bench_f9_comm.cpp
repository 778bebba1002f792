// F9 — communication cost vs accuracy.
//
// Reproduced shapes: BNCL traffic grows sub-linearly in iterations once the
// rebroadcast gate engages (beliefs stop changing, nodes fall silent), and
// the accuracy/traffic trade-off saturates: almost all of the final
// accuracy is bought by the first ~8 iterations' worth of bytes. The
// one-shot baselines anchor the cheap end of the spectrum. Bytes are the
// payloads as sent: a grid summary is its wire encoding (bounding box,
// presence bitmap, 16-bit masses; ~48 B at the default sizing), a Gaussian
// summary five floats (20 B). The Gaussian engine publishes every round and
// settled grid nodes fall silent, so per node the grid engine sends about
// half the Gaussian engine's bytes in packets ~2.4x larger.
#include "bench_common.hpp"

using namespace bnloc;
using namespace bnloc::bench;

int main() {
  const BenchConfig bc = BenchConfig::from_env();
  const ScenarioConfig base = default_scenario(bc);
  print_banner("F9", "communication cost vs accuracy", bc, base);

  BenchJson bj("F9", bc);
  std::printf("bncl-grid, iteration budget sweep:\n");
  AsciiTable t({"iterations", "mean/R", "msgs/node", "kB/node"});
  for (std::size_t iters : {1UL, 2UL, 4UL, 8UL, 16UL, 24UL}) {
    GridBnclConfig gc;
    gc.iteration.max_iterations = iters;
    gc.iteration.convergence_tol = 0.0;  // spend the full budget
    const GridBncl engine(gc);
    const AggregateRow row = run_algorithm(engine, base, bc.trials);
    bj.add(row, "iters=" + std::to_string(iters));
    t.add_row(std::to_string(iters),
              {row.error.mean, row.msgs_per_node,
               row.bytes_per_node / 1024.0}, 3);
  }
  t.print(std::cout);

  std::printf("\nall algorithms, accuracy vs total traffic:\n");
  AsciiTable cmp({"algorithm", "mean/R", "msgs/node", "kB/node"});
  for (const auto& algo : default_suite()) {
    const AggregateRow row = run_algorithm(*algo, base, bc.trials);
    bj.add(row);
    cmp.add_row(
        {row.algo, AsciiTable::fmt(row.error.mean, 4),
         AsciiTable::fmt(row.msgs_per_node, 1),
         AsciiTable::fmt(row.bytes_per_node / 1024.0, 2)});
  }
  cmp.print(std::cout);
  return 0;
}
