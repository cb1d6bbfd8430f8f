// Start-up hook and provenance id of the dispatch tuning.
//
// Every dispatch crossover (the BigInt Karatsuba/NTT thresholds, the
// mod-p NTT cost model, the CRT wave and image-batch models) is a
// compiled, ISA-aware constant; nothing is measured or loaded at run
// time.  These two functions remain because the end-to-end benchmark
// (perfbench/) calls them and stamps the id into its provenance.
#pragma once

#include <string>

namespace pr::calibrate {

/// The id of the tuning in effect: "defaults-<isa>", where <isa> is the
/// active mod-p kernel table (modular/simd/simd.hpp).
std::string active_profile_id();

/// No-op.  There is no run-time tuning to install; kept so existing
/// callers need not change.
void startup();

}  // namespace pr::calibrate
