// Umbrella header: the whole public bnloc API.
//
// Typical use:
//
//   #include "bnloc/bnloc.hpp"
//
//   bnloc::ScenarioConfig cfg;            // 200 nodes, 10% anchors, ...
//   auto scenario = bnloc::build_scenario(cfg);
//   bnloc::GridBncl engine;               // the paper's algorithm
//   bnloc::Rng rng(42);
//   auto result = engine.localize(scenario, rng);
//   auto report = bnloc::evaluate(scenario, result);
//
// See examples/quickstart.cpp for the narrated version.
#pragma once

#include "baselines/amorphous.hpp"
#include "baselines/apit.hpp"
#include "baselines/centroid.hpp"
#include "baselines/dvhop.hpp"
#include "baselines/mdsmap.hpp"
#include "baselines/minmax.hpp"
#include "baselines/refinement.hpp"
#include "core/engine_config.hpp"
#include "core/gaussian_bncl.hpp"
#include "core/grid_bncl.hpp"
#include "core/localizer.hpp"
#include "core/particle_bncl.hpp"
#include "core/tracking.hpp"
#include "deploy/anchors.hpp"
#include "deploy/deployment.hpp"
#include "deploy/scenario.hpp"
#include "eval/crlb.hpp"
#include "eval/experiment.hpp"
#include "eval/export.hpp"
#include "eval/metrics.hpp"
#include "fault/anchor_vetting.hpp"
#include "fault/fault.hpp"
#include "geom/aabb.hpp"
#include "geom/cov2.hpp"
#include "geom/vec2.hpp"
#include "graph/adjacency.hpp"
#include "graph/shortest_path.hpp"
#include "inference/grid_belief.hpp"
#include "inference/kernel_cache.hpp"
#include "inference/particle_set.hpp"
#include "inference/pyramid.hpp"
#include "inference/summary_codec.hpp"
#include "net/async_radio.hpp"
#include "net/comm_stats.hpp"
#include "net/transport.hpp"
#include "obs/histogram.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "prior/prior.hpp"
#include "radio/connectivity.hpp"
#include "radio/ranging.hpp"
#include "serve/json_io.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "support/config.hpp"
#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "support/version.hpp"
