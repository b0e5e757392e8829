// Canonical fuzz-corpus seed builders (gp::testkit).
//
// Each builder produces one small, *valid* payload for a parser under fuzz
// (see fuzz.hpp): a GPDS dataset cache blob, a GPNN parameter file, an obs
// run-report JSON document and cluster wire messages. The builders are
// deterministic (fixed Rng seeds), so the committed corpus under
// tests/corpus/ can be regenerated byte-identically with --write-corpus and
// any drift shows up in git.
#pragma once

#include <string>
#include <vector>

#include "nn/layers.hpp"

namespace gp::testkit {

/// GPDS payload: a 2-user, 2-gesture dataset with a handful of points.
std::string dataset_seed();

/// GPNN payload plus the matching parameter skeleton. The returned blob
/// round-trips through nn::load_parameters on tensors shaped like
/// `make_seed_parameters()`.
std::string params_seed();

/// Parameters whose names/shapes match params_seed(); load targets must
/// construct these fresh per execution (load_parameters mutates them).
std::vector<nn::Parameter> make_seed_parameters();

/// A REPORT_*.json document emitted by obs::write_run_report_json.
std::string report_json_seed();

/// GPWF wire frame (gp::cluster, DESIGN.md §12): one frame row as it rides
/// inside a kTick batch.
std::string wire_frame_seed();

/// GPWR results batch: the results a worker nests in a kTickReply.
std::string wire_results_seed();

/// GPWM envelope carrying a GPWT tick request: two wire_frame_seed() rows
/// and one checkpoint id, as the router puts a tick on a worker link.
std::string wire_tick_seed();

/// GPWM envelope carrying a GPWU tick reply: two verdicts, the
/// wire_results_seed() results and one state blob, as a worker answers.
std::string wire_tick_reply_seed();

/// Writes every seed into `dir` (created if needed) under stable filenames,
/// overwriting existing files. Returns the filenames written.
std::vector<std::string> write_corpus(const std::string& dir);

}  // namespace gp::testkit
