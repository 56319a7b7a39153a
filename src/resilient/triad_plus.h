// "Triad+": the paper's §V hardening proposals bundled as a preset.
//
//   1. In-TCB refresh deadline — the enclave re-checks its clock on its
//      own schedule, so an attacker suppressing AEXs can no longer let a
//      miscalibrated clock run unchecked forever.
//   2. True-chimer peer policy — majority interval intersection instead
//      of follow-the-fastest (see true_chimer_policy.h).
//   3. NTP-style long-window frequency refinement — re-estimates F_calib
//      across TA timestamps minutes apart, cancelling the per-message
//      delay bias that the F+/F- attacks inject into the short-window
//      regression.
//
// The preset is fixed: a 10 s refresh deadline and long-window
// refinement over TA samples at least 60 s apart. Ablations that vary
// a knob set the TriadConfig field directly.
#pragma once

#include <memory>

#include "resilient/true_chimer_policy.h"
#include "triad/node.h"

namespace triad::resilient {

/// Applies the Triad+ hardening knobs to a base node config.
TriadConfig harden(TriadConfig base);

/// Policy factory matching the hardened config.
std::unique_ptr<UntaintPolicy> make_triad_plus_policy(
    const TrueChimerConfig& chimer = {});

}  // namespace triad::resilient
