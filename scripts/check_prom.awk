# Tiny Prometheus text-format checker (plain awk — no gawk extensions).
#
#   awk -f scripts/check_prom.awk metrics.prom
#
# Accepts # HELP/# TYPE comments and sample lines `name[{labels}] value`;
# requires every sample's family to carry a # TYPE declaration and at
# least one sample overall. Knows the detector families' fixed shapes:
# triad_detector_alarms_total must be a counter and
# triad_detector_first_alarm_seconds a gauge wherever they appear, and
# with `-v require_detectors=1` every detector-labelled alarm series
# plus the first-alarm gauge becomes mandatory — attack-free runs
# export them as explicit zeros, so their absence means the detector
# bank was not wired in. Prints the first offence and exits 1.
#
# With `-v families=scripts/prom_families.txt` the generated R9 metric
# inventory (`triad_lint --emit-metric-inventory`) drives the check:
# every # TYPE declaration for an inventoried family must match the
# kind the source registered, and the require_detectors series list is
# read from the inventory's detector= label values instead of the
# built-in slope/disagreement/jump fallback — so a detector added in
# code is demanded here without touching this script.

function fail(msg) {
  printf "check_prom: line %d: %s\n", NR, msg
  bad = 1
  exit 1
}

BEGIN {
  if (families != "") {
    while ((getline inv_line < families) > 0) {
      if (inv_line == "" || substr(inv_line, 1, 1) == "#") continue
      nf = split(inv_line, fa, " ")
      inv_kind[fa[2]] = fa[1]
      if (fa[2] == "triad_detector_alarms_total") {
        for (i = 3; i <= nf; i++) {
          if (split(fa[i], kv, "=") == 2 && kv[1] == "detector") {
            nv = split(kv[2], vals, "|")
            for (j = 1; j <= nv; j++)
              if (vals[j] != "*") required_detector[vals[j]] = 1
          }
        }
      }
    }
    close(families)
    inv_loaded = 1
  }
  if (!inv_loaded) {
    # No inventory given: fall back to the fixed detector set.
    required_detector["slope"] = 1
    required_detector["disagreement"] = 1
    required_detector["jump"] = 1
  }
}

{
  if ($0 == "") next
  if (substr($0, 1, 1) == "#") {
    if ($2 != "HELP" && $2 != "TYPE") fail("unknown comment: " $0)
    if ($2 == "TYPE") {
      if ($4 != "counter" && $4 != "gauge" && $4 != "histogram")
        fail("bad metric type: " $0)
      if (inv_loaded && ($3 in inv_kind) && inv_kind[$3] != $4)
        fail("TYPE " $4 " but the source registers " $3 " as " inv_kind[$3])
      typed[$3] = $4
    }
    next
  }
  name = $0
  sub(/[{ ].*$/, "", name)
  if (name !~ /^[A-Za-z_:][A-Za-z0-9_:]*$/)
    fail("bad metric name: " $0)
  if (index($0, "{") > 0 && index($0, "}") == 0)
    fail("unterminated label set: " $0)
  value = $NF
  if (value !~ /^[-+]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?$/ &&
      value != "+Inf" && value != "-Inf" && value != "NaN")
    fail("bad sample value: " $0)
  family = name
  sub(/_(bucket|sum|count)$/, "", family)
  if (!(name in typed) && !(family in typed))
    fail("sample without # TYPE: " $0)
  if (name == "triad_detector_alarms_total") {
    if (typed[name] != "counter")
      fail("triad_detector_alarms_total must be a counter")
    if (match($0, /detector="[a-z]+"/))
      detector_series[substr($0, RSTART + 10, RLENGTH - 11)] = value
  }
  if (name == "triad_detector_first_alarm_seconds") {
    if (typed[name] != "gauge")
      fail("triad_detector_first_alarm_seconds must be a gauge")
    first_alarm_seen = 1
  }
  samples++
}

END {
  if (bad) exit 1
  if (samples == 0) {
    print "check_prom: no samples found"
    exit 1
  }
  if (require_detectors) {
    for (d in required_detector) {
      if (!(d in detector_series)) {
        print "check_prom: missing detector alarm series: " d
        exit 1
      }
    }
    if (!first_alarm_seen) {
      print "check_prom: missing triad_detector_first_alarm_seconds"
      exit 1
    }
  }
}
