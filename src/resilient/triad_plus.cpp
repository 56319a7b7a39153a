#include "resilient/triad_plus.h"

namespace triad::resilient {

TriadConfig harden(TriadConfig base) {
  base.refresh_deadline = seconds(10);
  base.long_window_calibration = true;
  base.long_window_min = seconds(60);
  return base;
}

std::unique_ptr<UntaintPolicy> make_triad_plus_policy(
    const TrueChimerConfig& chimer) {
  return make_true_chimer_policy(chimer);
}

}  // namespace triad::resilient
