// Observability layer: metrics registry, trace ring, exporters, and the
// end-to-end determinism guarantee (seeded runs produce byte-identical
// Prometheus text and JSONL traces).
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "obs/cli_output.h"
#include "obs/detect.h"
#include "obs/cluster.h"
#include "obs/export.h"
#include "obs/forensic.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace triad::obs {
namespace {

// --- metrics registry -----------------------------------------------------

TEST(Registry, CounterGaugeHistogramBasics) {
  Registry reg;
  Counter c = reg.counter("c_total", {{"node", "1"}});
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(reg.value("c_total", {{"node", "1"}}), 5.0);

  Gauge g = reg.gauge("g");
  g.set(2.5);
  g.add(0.5);
  EXPECT_EQ(g.value(), 3.0);

  Histogram h = reg.histogram("h", {1.0, 10.0});
  h.observe(0.5);   // bucket le=1
  h.observe(5.0);   // bucket le=10
  h.observe(100.0); // +Inf bucket
  const HistogramCell* cell = h.cell();
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, 3u);
  EXPECT_EQ(cell->counts, (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_DOUBLE_EQ(cell->sum, 105.5);
}

TEST(Registry, DefaultHandlesAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.set(1.0);
  h.observe(1.0);
  EXPECT_FALSE(c.attached());
  EXPECT_FALSE(g.attached());
  EXPECT_FALSE(h.attached());
  // make_* helpers return no-op handles for a null registry.
  EXPECT_FALSE(make_counter(nullptr, "x").attached());
  EXPECT_FALSE(make_gauge(nullptr, "x").attached());
  EXPECT_FALSE(make_histogram(nullptr, "x", {1.0}).attached());
}

TEST(Registry, SameNameAndLabelsResolveToSameCell) {
  Registry reg;
  Counter a = reg.counter("c_total", {{"node", "1"}});
  Counter b = reg.counter("c_total", {{"node", "1"}});
  Counter other = reg.counter("c_total", {{"node", "2"}});
  a.inc(3);
  b.inc(2);
  other.inc(10);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(reg.value("c_total", {{"node", "1"}}), 5.0);
  EXPECT_EQ(reg.total("c_total"), 15.0);
}

TEST(Registry, KindAndDuplicateConflictsThrow) {
  Registry reg;
  (void)reg.counter("m");
  EXPECT_THROW((void)reg.gauge("m"), std::logic_error);  // kind mismatch
  EXPECT_THROW(reg.counter_fn(&reg, "m", {}, [] { return 0.0; }),
               std::logic_error);  // direct cell already holds the series
  int owner = 0;
  reg.gauge_fn(&owner, "cb", {}, [] { return 1.0; });
  EXPECT_THROW(reg.gauge_fn(&owner, "cb", {}, [] { return 2.0; }),
               std::logic_error);  // duplicate callback series
  EXPECT_THROW((void)reg.histogram("hb", {}), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("hb", {2.0, 1.0}), std::invalid_argument);
}

TEST(Registry, UnregisterDropsOnlyTheOwnersSeries) {
  Registry reg;
  int owner_a = 0, owner_b = 0;
  reg.counter_fn(&owner_a, "cb_total", {{"node", "1"}}, [] { return 1.0; });
  reg.counter_fn(&owner_b, "cb_total", {{"node", "2"}}, [] { return 2.0; });
  EXPECT_EQ(reg.series_count(), 2u);
  reg.unregister(&owner_a);
  EXPECT_EQ(reg.series_count(), 1u);
  EXPECT_FALSE(reg.value("cb_total", {{"node", "1"}}).has_value());
  EXPECT_EQ(reg.value("cb_total", {{"node", "2"}}), 2.0);
}

TEST(Registry, HelpMayBeSetBeforeOrAfterRegistration) {
  // Components declare help next to registration in either order; both
  // must end up on the # HELP line.
  Registry reg;
  reg.set_help("early_total", "declared before the series");
  (void)reg.counter("early_total");
  (void)reg.counter("late_total");
  reg.set_help("late_total", "declared after the series");
  std::ostringstream out;
  reg.write_prometheus(out);
  EXPECT_NE(out.str().find("# HELP early_total declared before the series"),
            std::string::npos);
  EXPECT_NE(out.str().find("# HELP late_total declared after the series"),
            std::string::npos);
}

TEST(Registry, SnapshotKeepsRegistrationOrder) {
  Registry reg;
  (void)reg.counter("z_total");
  (void)reg.gauge("a_gauge");
  (void)reg.counter("m_total");
  const auto snaps = reg.snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].name, "z_total");  // registration order, not sorted
  EXPECT_EQ(snaps[1].name, "a_gauge");
  EXPECT_EQ(snaps[2].name, "m_total");
}

TEST(Registry, PrometheusTextFormat) {
  Registry reg;
  reg.set_help("req_total", "requests");
  reg.counter("req_total", {{"node", "1"}}).inc(7);
  Histogram h = reg.histogram("lat_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(2.0);
  std::ostringstream out;
  reg.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# HELP req_total requests\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("req_total{node=\"1\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram\n"), std::string::npos);
  // Buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 2.55\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 3\n"), std::string::npos);
}

TEST(Registry, CsvSnapshotFormat) {
  Registry reg;
  reg.counter("c_total", {{"node", "1"}, {"kind", "x"}}).inc(2);
  std::ostringstream out;
  reg.write_csv(out);
  EXPECT_NE(out.str().find("metric,kind,labels,value,count\n"),
            std::string::npos);
  EXPECT_NE(out.str().find("c_total,counter,node=1;kind=x,2,0\n"),
            std::string::npos);
}

TEST(Registry, CsvQuotesLabelValuesThatWouldBreakTheRow) {
  Registry reg;
  reg.counter("c_total", {{"path", "a,b"}, {"q", "say \"hi\""}}).inc(1);
  std::ostringstream out;
  reg.write_csv(out);
  // RFC 4180: the whole labels cell is quoted, inner quotes doubled.
  EXPECT_NE(out.str().find("c_total,counter,\"path=a,b;q=say \"\"hi\"\"\",1,0\n"),
            std::string::npos);
}

TEST(Registry, CsvEmptyRegistryIsHeaderOnly) {
  Registry reg;
  std::ostringstream out;
  reg.write_csv(out);
  EXPECT_EQ(out.str(), "metric,kind,labels,value,count\n");
}

// --- trace ring -----------------------------------------------------------

TraceEvent make_event(std::int64_t at, TraceEventType type) {
  TraceEvent event;
  event.at = at;
  event.type = type;
  return event;
}

TEST(RingTraceSink, BoundedAndCountsDrops) {
  RingTraceSink ring(3);
  for (int i = 0; i < 5; ++i) {
    ring.emit(make_event(i, TraceEventType::kAex));
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);
  // Oldest-to-newest visit of the retained (most recent) events.
  std::vector<std::int64_t> order;
  ring.for_each([&order](const TraceEvent& e) { order.push_back(e.at); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{2, 3, 4}));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
}

TEST(TeeTraceSink, FansOutToEverySink) {
  RingTraceSink a(8), b(8);
  TeeTraceSink tee;
  tee.add(&a);
  tee.add(&b);
  tee.emit(make_event(1, TraceEventType::kAex));
  tee.remove(&b);
  tee.emit(make_event(2, TraceEventType::kAex));
  EXPECT_EQ(a.total(), 2u);
  EXPECT_EQ(b.total(), 1u);
}

// --- JSONL export ---------------------------------------------------------

std::string printf_field(const char* format, ...) {
  char buffer[64];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return std::string("\"k\":") + buffer;
}

TEST(JsonFields, NumbersAreByteEqualToTheirPrintfFormats) {
  // JsonFields writes through std::to_chars; its bytes must be those of
  // the printf formats that define the JSON number forms (PRId64, PRIu64,
  // %.10g), which the stored report digests pin.
  const auto integer = [](std::int64_t v) {
    std::string out;
    JsonFields(&out).integer("k", v);
    return out;
  };
  const auto uinteger = [](std::uint64_t v) {
    std::string out;
    JsonFields(&out).uinteger("k", v);
    return out;
  };
  const auto number = [](double v) {
    std::string out;
    JsonFields(&out).number("k", v);
    return out;
  };
  for (const std::int64_t v : {INT64_MIN, std::int64_t{-1}, std::int64_t{0},
                               std::int64_t{42}, INT64_MAX}) {
    EXPECT_EQ(integer(v), printf_field("%" PRId64, v));
  }
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{7},
                                std::uint64_t{INT64_MAX} + 1, UINT64_MAX}) {
    EXPECT_EQ(uinteger(v), printf_field("%" PRIu64, v));
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v :
       {0.0, -0.0, std::numeric_limits<double>::denorm_min(), 2.5e-310,
        DBL_MIN, 0.1, 1e-5, 1e-4, 0.5, 1.0 / 3.0, 2.5e9, 9999999999.5,
        1e10, 1e21, 123456789012.0, -123456789012.0, DBL_MAX, -DBL_MAX, inf,
        -inf, nan, -nan}) {
    EXPECT_EQ(number(v), printf_field("%.10g", v));
  }
  std::string out;
  JsonFields two(&out);
  two.integer("a", 1);
  two.number("b", 0.25);
  EXPECT_EQ(out, "\"a\":1,\"b\":0.25");
}

TEST(TraceExport, JsonLineRendersTypedFields) {
  TraceEvent event;
  event.at = 1500000000;
  event.type = TraceEventType::kAdoption;
  event.node = 3;
  event.peer = 4;
  event.a = 1499998000;
  event.b = 1500002000;
  std::ostringstream out;
  write_json_line(event, out);
  EXPECT_EQ(out.str(),
            "{\"t\":1500000000,\"type\":\"adoption\",\"node\":3,"
            "\"source\":4,\"before\":1499998000,\"adopted\":1500002000,"
            "\"step_ns\":4000}");
}

TEST(TraceExport, JsonlWritesOneLinePerEvent) {
  RingTraceSink ring(4);
  ring.emit(make_event(1, TraceEventType::kAex));
  ring.emit(make_event(2, TraceEventType::kClockStep));
  std::ostringstream out;
  write_jsonl(ring, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"t\":1,\"type\":\"aex\""), std::string::npos);
  EXPECT_NE(text.find("{\"t\":2,\"type\":\"clock_step\""), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(TraceExport, JsonlTailIsTheNewestLinesOfTheFullDump) {
  RingTraceSink ring(4);
  for (SimTime t = 1; t <= 6; ++t) {  // wraps: events 3..6 are retained
    ring.emit(make_event(t, TraceEventType::kAex));
  }
  std::ostringstream full;
  write_jsonl(ring, full);
  std::vector<std::string> lines;
  std::istringstream in(full.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  for (const std::size_t last : {0, 1, 3, 4, 9}) {
    std::string want;
    for (std::size_t i = 4 - std::min<std::size_t>(last, 4); i < 4; ++i) {
      want += lines[i] + "\n";
    }
    std::ostringstream tail;
    write_jsonl(ring, tail, last);
    EXPECT_EQ(tail.str(), want) << "last " << last;
  }
}

// --- causal spans ---------------------------------------------------------

TEST(SpanId, PacksNodeAndSequence) {
  const SpanId id = make_span_id(3, 17);
  EXPECT_EQ(span_node(id), 3u);
  EXPECT_EQ(span_seq(id), 17u);
  EXPECT_NE(make_span_id(1, 1), make_span_id(2, 1));
  EXPECT_NE(make_span_id(1, 1), make_span_id(1, 2));
  // seq >= 1 keeps every real span id nonzero (0 = "no span").
  EXPECT_NE(make_span_id(0, 1), 0u);
}

TraceEvent calibration_event(SimTime at, NodeId node, SpanId span,
                             double f_hz) {
  TraceEvent event;
  event.at = at;
  event.type = TraceEventType::kCalibration;
  event.node = node;
  event.span = span;
  event.x = f_hz;
  event.y = 0.999;
  event.a = 16;
  return event;
}

TraceEvent adoption_event(SimTime at, NodeId node, NodeId source,
                          SpanId span, std::int64_t before,
                          std::int64_t adopted) {
  TraceEvent event;
  event.at = at;
  event.type = TraceEventType::kAdoption;
  event.node = node;
  event.peer = source;
  event.span = span;
  event.a = before;
  event.b = adopted;
  return event;
}

TEST(SpanIndex, ReconstructsEpisodesAndCauseEdges) {
  // Node 3 calibrates (poisoned slope); node 1 then recovers from an
  // AEX by adopting node 3's clock — the F- infection step.
  const SpanId victim_span = make_span_id(3, 1);
  const SpanId honest_span = make_span_id(1, 1);
  std::vector<TraceEvent> events;
  events.push_back(calibration_event(1000, 3, victim_span, 2.61e9));
  TraceEvent aex;
  aex.at = 2000;
  aex.type = TraceEventType::kAex;
  aex.node = 1;
  aex.span = honest_span;
  aex.a = 1;
  events.push_back(aex);
  events.push_back(adoption_event(2500, 1, 3, honest_span, 100, 8200100));

  const SpanIndex index(events);
  ASSERT_EQ(index.spans().size(), 2u);
  const Span& calib = index.spans()[0];
  EXPECT_EQ(calib.id, victim_span);
  EXPECT_EQ(calib.node, 3u);
  EXPECT_EQ(calib.kind, SpanKind::kCalibration);
  EXPECT_TRUE(calib.has_calibration);
  EXPECT_DOUBLE_EQ(calib.calib_slope_hz, 2.61e9);
  EXPECT_EQ(calib.cause, 0u);

  const Span& untaint = index.spans()[1];
  EXPECT_EQ(untaint.id, honest_span);
  EXPECT_EQ(untaint.kind, SpanKind::kUntaint);
  EXPECT_EQ(untaint.start, 2000);
  EXPECT_EQ(untaint.end, 2500);
  EXPECT_EQ(untaint.events, (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(untaint.has_adoption);
  EXPECT_EQ(untaint.adoption_source, 3u);
  EXPECT_EQ(untaint.adoption_step_ns, 8200000);
  // The cross-node cause edge: the adoption points at the span in
  // which its source last calibrated.
  EXPECT_EQ(untaint.cause, victim_span);

  const auto chain = index.chain(honest_span);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0]->id, honest_span);
  EXPECT_EQ(chain[1]->id, victim_span);
  EXPECT_EQ(index.find(make_span_id(9, 9)), nullptr);
  EXPECT_TRUE(index.chain(make_span_id(9, 9)).empty());
}

TEST(SpanIndex, ChainIsCycleSafe) {
  // Cause edges that loop must not loop chain(): it stops before the
  // first span it would visit twice.
  const auto ids = [](const std::vector<const Span*>& chain) {
    std::vector<SpanId> out;
    for (const Span* span : chain) out.push_back(span->id);
    return out;
  };
  const SpanId a = make_span_id(1, 1);
  const SpanId b = make_span_id(2, 1);
  const SpanId c = make_span_id(3, 1);
  {
    // A -> B -> A: two calibration spans adopting each other's clocks.
    std::vector<TraceEvent> events;
    events.push_back(calibration_event(100, 1, a, 2.9e9));
    events.push_back(calibration_event(200, 2, b, 2.9e9));
    events.push_back(adoption_event(300, 1, 2, a, 0, 10));
    events.push_back(adoption_event(400, 2, 1, b, 0, 10));
    const SpanIndex index(events);
    EXPECT_EQ(ids(index.chain(a)), (std::vector<SpanId>{a, b}));
    EXPECT_EQ(ids(index.chain(b)), (std::vector<SpanId>{b, a}));
  }
  {
    // A -> A: a node adopting from itself names its own calibration.
    std::vector<TraceEvent> events;
    events.push_back(calibration_event(100, 1, a, 2.9e9));
    events.push_back(adoption_event(300, 1, 1, a, 0, 10));
    const SpanIndex index(events);
    EXPECT_EQ(ids(index.chain(a)), (std::vector<SpanId>{a}));
  }
  {
    // A -> B -> C -> B: the loop starts after a tail.
    std::vector<TraceEvent> events;
    events.push_back(calibration_event(100, 1, a, 2.9e9));
    events.push_back(calibration_event(110, 2, b, 2.9e9));
    events.push_back(calibration_event(120, 3, c, 2.9e9));
    events.push_back(adoption_event(300, 1, 2, a, 0, 10));
    events.push_back(adoption_event(310, 2, 3, b, 0, 10));
    events.push_back(adoption_event(320, 3, 2, c, 0, 10));
    const SpanIndex index(events);
    EXPECT_EQ(ids(index.chain(a)), (std::vector<SpanId>{a, b, c}));
    EXPECT_EQ(ids(index.chain(c)), (std::vector<SpanId>{c, b}));
  }
}

TEST(SpanIndex, LongChainsCopiesAndMoves) {
  // Span i calibrates on node i+1, then adopts node i's clock: its cause
  // is span i-1, so the last span's chain walks all of them back.
  constexpr std::uint32_t kSpans = 10000;
  const auto id_of = [](std::uint32_t i) {
    return make_span_id(i % 1000 + 1, i / 1000 + 1);
  };
  std::vector<TraceEvent> events;
  for (std::uint32_t i = 0; i < kSpans; ++i) {
    events.push_back(calibration_event(10 * i, i + 1, id_of(i), 2.9e9));
    if (i > 0) {
      events.push_back(adoption_event(10 * i + 5, i + 1, i, id_of(i), 0, 10));
    }
  }
  const auto check = [&](const SpanIndex& index) {
    const std::vector<const Span*> chain = index.chain(id_of(kSpans - 1));
    ASSERT_EQ(chain.size(), kSpans);
    for (std::uint32_t k = 0; k < kSpans; ++k) {
      ASSERT_EQ(chain[k]->id, id_of(kSpans - 1 - k)) << k;
    }
    for (const std::uint32_t i : {0u, 1u, 4999u, kSpans - 1}) {
      const Span* span = index.find(id_of(i));
      ASSERT_NE(span, nullptr);
      EXPECT_EQ(span, &index.spans()[i]);
    }
    EXPECT_EQ(index.find(make_span_id(1001, 1)), nullptr);
    EXPECT_EQ(index.find(0), nullptr);
    EXPECT_TRUE(index.chain(make_span_id(1001, 1)).empty());
  };
  SpanIndex index(events);
  check(index);
  const SpanIndex copy(index);  // find() must answer from the copy's spans
  check(copy);
  SpanIndex moved(std::move(index));
  check(moved);
  index = SpanIndex(std::vector<TraceEvent>(events.begin(),
                                            events.begin() + 3));
  ASSERT_EQ(index.spans().size(), 2u);
  EXPECT_EQ(index.find(id_of(1)), &index.spans()[1]);
  EXPECT_EQ(index.chain(id_of(1)).size(), 2u);
  EXPECT_EQ(index.find(id_of(2)), nullptr);
  index = copy;
  check(index);
}

// --- multi-stream merge ---------------------------------------------------

std::string jsonl_of(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  for (const TraceEvent& event : events) {
    write_json_line(event, os);
    os << '\n';
  }
  return os.str();
}

TEST(MergeNodeStreams, OrderIndependentAndByteIdentical) {
  // Three streams with *overlapping* timestamps (each node's epoch is
  // its own): the merge must be node-primary and byte-identical for
  // every input permutation, not time-interleaved.
  NodeStream n1{1, {calibration_event(500, 1, make_span_id(1, 1), 2.9e9),
                    adoption_event(900, 1, 2, make_span_id(1, 2), 0, 10)}};
  NodeStream n2{2, {calibration_event(100, 2, make_span_id(2, 1), 2.9e9)}};
  NodeStream n3{3, {adoption_event(300, 3, 1, make_span_id(3, 1), 0, 10)}};

  const std::string forward = jsonl_of(merge_node_streams({n1, n2, n3}));
  EXPECT_EQ(forward, jsonl_of(merge_node_streams({n3, n2, n1})));
  EXPECT_EQ(forward, jsonl_of(merge_node_streams({n2, n1, n3})));

  // Node-primary: all of node 1 precedes all of node 2 even though node
  // 2's timestamps are smaller, and each stream keeps internal order.
  const std::vector<TraceEvent> merged = merge_node_streams({n3, n2, n1});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].node, 1u);
  EXPECT_EQ(merged[1].node, 1u);
  EXPECT_EQ(merged[2].node, 2u);
  EXPECT_EQ(merged[3].node, 3u);
  EXPECT_EQ(merged[0].at, 500);
  EXPECT_EQ(merged[1].at, 900);
}

TEST(MergeNodeStreams, DuplicateNodeIdsStayTotallyOrdered) {
  // Two streams claiming the same origin (a re-shipped dump): content
  // tie-break keeps the merge a total order, still input-order-free.
  NodeStream a{7, {calibration_event(100, 7, make_span_id(7, 1), 2.9e9)}};
  NodeStream b{7, {calibration_event(50, 7, make_span_id(7, 2), 3.0e9)}};
  EXPECT_EQ(jsonl_of(merge_node_streams({a, b})),
            jsonl_of(merge_node_streams({b, a})));
}

TEST(SpanIndex, MergedStreamsJoinCrossNodeSpans) {
  // The requester's span id travels inside the sealed TaRequest, so the
  // TA's kTaServe event carries it. Merging the requester's stream with
  // the TA's stream must land both nodes' events in ONE span even
  // though no single stream contains the whole episode.
  const SpanId span = make_span_id(1, 1);
  NodeStream requester{1,
                       {calibration_event(1000, 1, span, 2.9e9)}};
  TraceEvent serve;
  serve.at = 77;  // TA's own epoch — incomparable with the requester's
  serve.type = TraceEventType::kTaServe;
  serve.node = 9;
  serve.peer = 1;
  serve.span = span;
  NodeStream ta{9, {serve}};

  const SpanIndex index(std::vector<NodeStream>{ta, requester});
  ASSERT_EQ(index.spans().size(), 1u);
  const Span& joined = index.spans()[0];
  EXPECT_EQ(joined.id, span);
  EXPECT_EQ(joined.node, 1u);
  EXPECT_EQ(joined.events.size(), 2u);
  EXPECT_TRUE(joined.has_calibration);
}

// --- online detectors -----------------------------------------------------

TEST(Detectors, SlopeNeedsQuorumThenFlagsTheOutlier) {
  const DetectorConfig config;
  const auto detector = make_slope_detector(config);
  std::vector<Alarm> alarms;
  detector->on_event(calibration_event(1, 1, make_span_id(1, 1), 2.900e9),
                     &alarms);
  detector->on_event(calibration_event(2, 2, make_span_id(2, 1), 2.9001e9),
                     &alarms);
  EXPECT_TRUE(alarms.empty());  // below quorum: no baseline yet
  detector->on_event(calibration_event(3, 3, make_span_id(3, 1), 2.61e9),
                     &alarms);
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].detector, DetectorKind::kSlope);
  EXPECT_EQ(alarms[0].node, 3u);
  EXPECT_EQ(alarms[0].span, make_span_id(3, 1));
  EXPECT_LT(alarms[0].value, -kSlopeTolerancePpm);  // F-: slow slope
}

TEST(Detectors, SlopeUsesNominalPriorWithoutQuorum) {
  DetectorConfig config;
  config.nominal_frequency_hz = 2.9e9;
  const auto detector = make_slope_detector(config);
  std::vector<Alarm> alarms;
  detector->on_event(calibration_event(1, 3, make_span_id(3, 1), 2.61e9),
                     &alarms);
  ASSERT_EQ(alarms.size(), 1u);  // first calibration, no quorum needed
  EXPECT_EQ(alarms[0].node, 3u);
}

TEST(Detectors, DisagreementEdgeTriggersAndAttributesTheOutlier) {
  const auto detector = make_disagreement_detector();
  std::vector<Alarm> alarms;
  detector->on_event(calibration_event(1, 1, make_span_id(1, 1), 2.9e9),
                     &alarms);
  EXPECT_TRUE(alarms.empty());  // one slope: no spread to measure
  detector->on_event(calibration_event(2, 2, make_span_id(2, 1), 2.61e9),
                     &alarms);
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].detector, DetectorKind::kDisagreement);
  // Two slopes are equidistant from their midpoint: unattributable.
  EXPECT_EQ(alarms[0].node, 0u);
  detector->on_event(calibration_event(3, 3, make_span_id(3, 1), 2.9e9),
                     &alarms);
  EXPECT_EQ(alarms.size(), 1u);  // still in excursion: edge-triggered
  // Node 2 re-calibrates cleanly; the spread heals and re-arms.
  detector->on_event(calibration_event(4, 2, make_span_id(2, 2), 2.9e9),
                     &alarms);
  EXPECT_EQ(alarms.size(), 1u);
  detector->on_event(calibration_event(5, 2, make_span_id(2, 3), 2.61e9),
                     &alarms);
  ASSERT_EQ(alarms.size(), 2u);
  // Three slopes now: the outlier is attributable.
  EXPECT_EQ(alarms[1].node, 2u);
}

TEST(Detectors, JumpUsesFloorAndRecentMedianAndIgnoresTheTa) {
  DetectorConfig config;
  config.ta_address = 4;
  const auto detector = make_jump_detector(config);
  std::vector<Alarm> alarms;
  // TA adoptions are ground truth: never suspicious.
  detector->on_event(adoption_event(1, 1, 4, 0, 0, 900000000), &alarms);
  // Backward steps cannot propagate a fast clock.
  detector->on_event(adoption_event(2, 1, 2, 0, 1000, 500), &alarms);
  // Sub-floor drift repair (2 ms) seeds the running median quietly.
  detector->on_event(adoption_event(3, 1, 2, 0, 0, 2000000), &alarms);
  EXPECT_TRUE(alarms.empty());
  // An infection-sized jump clears max(floor, 8 x median(2ms)) = 16 ms.
  detector->on_event(
      adoption_event(4, 1, 3, make_span_id(1, 2), 0, 8200000000), &alarms);
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].detector, DetectorKind::kJump);
  EXPECT_EQ(alarms[0].node, 1u);
  EXPECT_EQ(alarms[0].source, 3u);
  EXPECT_DOUBLE_EQ(alarms[0].value, 8200.0);
  EXPECT_DOUBLE_EQ(alarms[0].threshold, 16.0);
}

TEST(DetectorBank, RegistersZeroedFamiliesAndRecordsAlarms) {
  Registry registry;
  RingTraceSink ring(16);
  DetectorConfig config;
  config.nominal_frequency_hz = 2.9e9;
  DetectorBank bank(config, &registry, &ring);
  // All three families exist (at zero) before any alarm, so attack-free
  // exports carry explicit zeros.
  for (const char* kind : {"slope", "disagreement", "jump"}) {
    EXPECT_EQ(registry.value("triad_detector_alarms_total",
                             {{"detector", kind}}),
              0.0);
  }
  EXPECT_EQ(registry.value("triad_detector_first_alarm_seconds", {}), -1.0);
  EXPECT_EQ(bank.first_alarm_at(), -1);

  bank.emit(calibration_event(seconds(5), 3, make_span_id(3, 1), 2.61e9));
  ASSERT_EQ(bank.alarms().size(), 1u);
  EXPECT_EQ(bank.first_alarm_at(), seconds(5));
  EXPECT_EQ(registry.value("triad_detector_alarms_total",
                           {{"detector", "slope"}}),
            1.0);
  EXPECT_EQ(registry.value("triad_detector_first_alarm_seconds", {}), 5.0);
  // The alarm landed in the trace as a kDetectorAlarm event carrying the
  // triggering event's time and span.
  const std::vector<TraceEvent> events = ring.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, TraceEventType::kDetectorAlarm);
  EXPECT_EQ(events[0].at, seconds(5));
  EXPECT_EQ(events[0].span, make_span_id(3, 1));
  EXPECT_EQ(events[0].a,
            static_cast<std::int64_t>(DetectorKind::kSlope));
}

TEST(DetectorBank, IgnoresItsOwnAlarmEvents) {
  Registry registry;
  RingTraceSink ring(16);
  DetectorConfig config;
  config.nominal_frequency_hz = 2.9e9;
  DetectorBank bank(config, &registry, &ring);
  bank.emit(calibration_event(1, 3, make_span_id(3, 1), 2.61e9));
  ASSERT_EQ(bank.alarms().size(), 1u);
  // Replaying the recorded alarm (offline analysis feeds whole dumps
  // back in) must not double-count or recurse.
  bank.emit(ring.events()[0]);
  EXPECT_EQ(bank.alarms().size(), 1u);
  EXPECT_EQ(ring.total(), 1u);
}

// --- JSONL parsing --------------------------------------------------------

TEST(TraceExport, WriteParseWriteIsIdentityForEveryType) {
  for (int i = 0;
       i <= static_cast<int>(TraceEventType::kDetectorAlarm); ++i) {
    TraceEvent event;
    event.at = 1500000000;
    event.type = static_cast<TraceEventType>(i);
    event.node = 3;
    event.peer = 2;
    event.span = make_span_id(3, 7);
    event.a = 1;  // valid as bool, state, count, and detector kind
    event.b = 2;  // valid as bool rendering input and outcome/reason
    event.x = 1.5;
    event.y = 0.25;
    std::ostringstream first;
    write_json_line(event, first);
    const auto parsed = parse_json_line(first.str());
    ASSERT_TRUE(parsed.has_value()) << first.str();
    std::ostringstream second;
    write_json_line(*parsed, second);
    EXPECT_EQ(first.str(), second.str()) << "type " << i;
  }
}

TEST(TraceExport, ParserRejectsMalformedInput) {
  EXPECT_FALSE(parse_json_line("").has_value());
  EXPECT_FALSE(parse_json_line("not json").has_value());
  EXPECT_FALSE(parse_json_line("{}").has_value());  // type is mandatory
  EXPECT_FALSE(parse_json_line("{\"t\":1}").has_value());
  EXPECT_FALSE(
      parse_json_line("{\"t\":1,\"type\":\"warp_drive\"}").has_value());
  EXPECT_FALSE(
      parse_json_line("{\"t\":1,\"type\":\"aex\",\"bogus\":1}").has_value());
  EXPECT_FALSE(
      parse_json_line("{\"t\":1,\"type\":\"aex\"} trailing").has_value());
  EXPECT_FALSE(
      parse_json_line("{\"t\":x,\"type\":\"aex\"}").has_value());
  // type must be a quoted enum name, not a number.
  EXPECT_FALSE(parse_json_line("{\"t\":1,\"type\":2}").has_value());
  EXPECT_TRUE(parse_json_line("{\"t\":1,\"type\":\"aex\",\"count\":3}")
                  .has_value());
  // A bare value ends at any whitespace the scanner skips.
  EXPECT_TRUE(parse_json_line("{\"t\":1 ,\"type\":\"aex\",\"count\":0}")
                  .has_value());
  EXPECT_TRUE(parse_json_line("{\"t\":1\t,\"type\":\"aex\",\"count\":0}")
                  .has_value());
}

// What one bare value token parses to in an integer slot (`count`) and
// in a double slot (`f_hz`), each in an otherwise complete line. The
// table pins the accepted set to the writer's forms: a token is
// accepted only as the text the writer prints for its value, so
// integers as '-'? digits (never "-0"), doubles as std::to_chars general
// with 10 significant digits prints them (nan and inf included), no '+',
// no hex, no leading zero, out-of-range values refused, and never a
// quoted value.
std::optional<std::int64_t> int_slot(const std::string& value) {
  const auto event =
      parse_json_line("{\"t\":1,\"type\":\"aex\",\"count\":" + value + "}");
  if (!event) return std::nullopt;
  return event->a;
}

std::optional<double> double_slot(const std::string& value) {
  const auto event = parse_json_line(
      "{\"t\":1,\"type\":\"calibration\",\"f_hz\":" + value +
      ",\"r2\":0,\"samples\":0}");
  if (!event) return std::nullopt;
  return event->x;
}

TEST(TraceExport, ParserTokenTable) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr auto kNo = std::nullopt;
  struct Row {
    const char* token;
    std::optional<std::int64_t> as_int;
    std::optional<double> as_double;
  };
  const Row rows[] = {
      {"5", 5, 5.0},
      {"+5", kNo, kNo},
      {"+-5", kNo, kNo},
      {"-0", kNo, -0.0},
      // Past 10 significant digits a double would not survive a write.
      {"9223372036854775807", INT64_MAX, kNo},
      {"9223372036854775808", kNo, kNo},
      {"-9223372036854775808", INT64_MIN, kNo},
      {"1234567890", 1234567890, 1234567890.0},
      {"0.001234567890", kNo, kNo},
      {"12345678901", 12345678901, kNo},
      {"007", kNo, kNo},
      {"-00.5", kNo, kNo},
      {"nan(1)", kNo, kNo},
      {"0x10", kNo, kNo},
      {"1.0", kNo, kNo},
      {"", kNo, kNo},
      {"nan", kNo, kNan},
      {"-nan", kNo, -kNan},
      {"inf", kNo, kInf},
      {"-inf", kNo, -kInf},
      // Subnormals: the writer prints them with 10 significant digits.
      {"1e-320", kNo, kNo},
      {"9.999888672e-321", kNo, 9.999888672e-321},
      {"1e400", kNo, kNo},
  };
  const auto same = [](std::optional<double> got,
                       std::optional<double> want) {
    if (got.has_value() != want.has_value()) return false;
    if (!got) return true;
    if (std::isnan(*want)) {
      return std::isnan(*got) && std::signbit(*got) == std::signbit(*want);
    }
    return *got == *want && std::signbit(*got) == std::signbit(*want);
  };
  for (const Row& row : rows) {
    const std::string bare = row.token;
    const std::string quoted = "\"" + bare + "\"";
    EXPECT_EQ(int_slot(bare), row.as_int) << bare;
    EXPECT_EQ(int_slot(quoted), kNo) << quoted;
    EXPECT_TRUE(same(double_slot(bare), row.as_double)) << bare;
    EXPECT_TRUE(same(double_slot(quoted), kNo)) << quoted;
  }
}

TEST(TraceExport, ParseJsonlCountsRejectedLines) {
  const std::string text =
      "{\"t\":1,\"type\":\"aex\",\"node\":2,\"count\":1}\n"
      "garbage\n"
      "\n"
      // Lines the writer never emits, each complete but for its one
      // defect: a quoted integer, a quoted boolean, a quoted empty value,
      // a '+' sign, a missing and a trailing comma.
      "{\"t\":\"5\",\"type\":\"aex\",\"count\":1}\n"
      "{\"t\":5,\"type\":\"handshake\",\"peer\":2,\"ok\":\"true\"}\n"
      "{\"t\":\"\",\"type\":\"aex\",\"count\":1}\n"
      "{\"t\":+1,\"type\":\"aex\",\"count\":1}\n"
      "{\"t\":1 \"type\":\"aex\",\"count\":1}\n"
      "{\"t\":1,\"type\":\"aex\",\"count\":1,}\n"
      // A second type, a second key for a slot already set, a leading
      // zero, and a key the writer emits only for another type.
      "{\"t\":1,\"type\":\"aex\",\"type\":\"clock_step\",\"count\":1}\n"
      "{\"t\":1,\"type\":\"aex\",\"count\":1,\"packet\":2}\n"
      "{\"t\":007,\"type\":\"aex\",\"count\":1}\n"
      "{\"t\":1,\"type\":\"aex\",\"count\":1,\"bytes\":80}\n"
      // Members out of the writer's order: type before t, node after the
      // type's members, samples before r2.
      "{\"type\":\"aex\",\"t\":1,\"count\":1}\n"
      "{\"t\":1,\"type\":\"aex\",\"count\":1,\"node\":2}\n"
      "{\"t\":1,\"type\":\"calibration\",\"f_hz\":2900000000,"
      "\"samples\":8,\"r2\":1}\n"
      // A missing member (t, r2), an omit-at-zero member present at 0,
      // numbers not in the writer's form (-0, 1.0).
      "{\"type\":\"aex\",\"count\":1}\n"
      "{\"t\":1,\"type\":\"calibration\",\"f_hz\":2900000000,"
      "\"samples\":8}\n"
      "{\"t\":1,\"type\":\"aex\",\"node\":0,\"count\":1}\n"
      "{\"t\":1,\"type\":\"aex\",\"count\":-0}\n"
      "{\"t\":1,\"type\":\"calibration\",\"f_hz\":1.0,\"r2\":1,"
      "\"samples\":8}\n"
      // step_ns is adopted - before: a wrong one, one that overflows
      // (would be signed overflow in forensic replay), and the same with
      // the wrapped difference.
      "{\"t\":5,\"type\":\"adoption\",\"node\":3,\"source\":2,"
      "\"before\":100,\"adopted\":400,\"step_ns\":200}\n"
      "{\"t\":5,\"type\":\"adoption\",\"node\":3,\"span\":9,\"source\":2,"
      "\"before\":-9223372036854775808,\"adopted\":9223372036854775807,"
      "\"step_ns\":0}\n"
      "{\"t\":5,\"type\":\"adoption\",\"node\":3,\"span\":9,\"source\":2,"
      "\"before\":-9223372036854775808,\"adopted\":9223372036854775807,"
      "\"step_ns\":-1}\n"
      "{\"t\":2,\"type\":\"clock_step\",\"offset_ns\":-500}\n";
  std::size_t rejected = 0;
  const std::vector<TraceEvent> events = parse_jsonl(text, &rejected);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(rejected, 22u);
  EXPECT_EQ(events[0].type, TraceEventType::kAex);
  EXPECT_EQ(events[0].node, 2u);
  EXPECT_EQ(events[1].type, TraceEventType::kClockStep);
  EXPECT_EQ(events[1].a, -500);
}

// --- command-line output policy -------------------------------------------

TEST(CliOutput, RoutesStdoutAllowsOneDashAndFailsOnUnopenablePath) {
  // Flag parsing: --metrics/--trace only for per-run tools.
  const char* argv[] = {"tool", "--metrics", "-", "--prof-normalize",
                        "--prof"};
  ObsOutputs outputs;
  int i = 1;
  EXPECT_EQ(take_output_flag(5, argv, &i, /*per_run=*/false, &outputs),
            FlagParse::kNotMine);
  EXPECT_EQ(take_output_flag(5, argv, &i, /*per_run=*/true, &outputs),
            FlagParse::kTaken);
  EXPECT_EQ(i, 2);
  EXPECT_EQ(outputs.metrics, "-");
  i = 3;
  EXPECT_EQ(take_output_flag(5, argv, &i, true, &outputs), FlagParse::kTaken);
  EXPECT_TRUE(outputs.prof_normalize);
  i = 4;
  EXPECT_EQ(take_output_flag(5, argv, &i, true, &outputs),
            FlagParse::kMissingValue);

  // The one-stdout rule names every output that claims stdout.
  outputs.trace = "t.jsonl";
  EXPECT_EQ(check_one_stdout(named_outputs(outputs)), "");
  outputs.prof = "-";
  const std::string message = check_one_stdout(named_outputs(outputs));
  EXPECT_NE(message.find("at most one"), std::string::npos);
  EXPECT_NE(message.find("--metrics and --prof"), std::string::npos);

  // Routing: "-" goes to out and moves the summary to err; a file gets a
  // "written to" line; an unopenable path fails with 1 and stops there.
  const std::string file =
      (std::filesystem::temp_directory_path() / "cli_output_test.txt")
          .string();
  std::ostringstream out, err;
  const OutputRouter router(out, err, {{"--csv", "-"}});
  EXPECT_EQ(&router.summary(), &err);
  int written = 0;
  const auto body = [&written](std::ostream& os) {
    os << "body\n";
    ++written;
  };
  EXPECT_EQ(router.write({{std::nullopt, "unrequested", body},
                          {"-", "csv", body},
                          {file, "json", body}}),
            0);
  EXPECT_EQ(out.str(), "body\n");
  EXPECT_EQ(err.str(), "json written to " + file + "\n");
  EXPECT_EQ(router.write({{"/nonexistent-dir/x.txt", "json", body},
                          {"-", "csv", body}}),
            1);
  EXPECT_EQ(written, 2);
  EXPECT_NE(err.str().find("error: cannot open /nonexistent-dir/x.txt"),
            std::string::npos);
  std::remove(file.c_str());

  std::ostringstream quiet_out, quiet_err;
  const OutputRouter files_only(quiet_out, quiet_err, {{"--csv", file}});
  EXPECT_EQ(&files_only.summary(), &quiet_out);
}

// --- end-to-end determinism and attack reconstruction ---------------------

exp::ScenarioConfig observed_config(std::uint64_t seed) {
  exp::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.enable_metrics = true;
  cfg.enable_detectors = true;
  cfg.trace_capacity = 1 << 16;
  return cfg;
}

struct ObservedRun {
  std::string prometheus;
  std::string jsonl;
};

ObservedRun run_observed(std::uint64_t seed, bool attack) {
  exp::Scenario sc(observed_config(seed));
  if (attack) {
    attacks::DelayAttackConfig config;
    config.kind = attacks::AttackKind::kFMinus;
    config.victim = sc.node_address(2);
    config.ta_address = sc.ta_address();
    config.added_delay = milliseconds(100);
    sc.add_delay_attack(config);
  }
  sc.start();
  sc.run_until(minutes(3));
  ObservedRun run;
  std::ostringstream prom, jsonl;
  sc.metrics()->write_prometheus(prom);
  write_jsonl(*sc.trace(), jsonl);
  run.prometheus = prom.str();
  run.jsonl = jsonl.str();
  return run;
}

TEST(ObsDeterminism, SeededRunsProduceByteIdenticalExports) {
  const ObservedRun first = run_observed(77, /*attack=*/false);
  const ObservedRun second = run_observed(77, /*attack=*/false);
  EXPECT_EQ(first.prometheus, second.prometheus);
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_FALSE(first.jsonl.empty());
  EXPECT_NE(first.prometheus.find("triad_node_adoptions_total"),
            std::string::npos);
  const ObservedRun other = run_observed(78, /*attack=*/false);
  EXPECT_NE(first.jsonl, other.jsonl);
}

TEST(ObsDeterminism, FMinusTraceReconstructsTheAttackChain) {
  // The F- middlebox inflates the victim's calibration; the trace must
  // let a reader reconstruct the chain: taint (state change), peer
  // query, and an adoption of external evidence.
  const ObservedRun run = run_observed(9, /*attack=*/true);
  EXPECT_NE(run.jsonl.find("\"type\":\"state_change\",\"node\":3"),
            std::string::npos);
  EXPECT_NE(run.jsonl.find("\"type\":\"peer_query\",\"node\":3"),
            std::string::npos);
  EXPECT_NE(run.jsonl.find("\"type\":\"adoption\",\"node\":3"),
            std::string::npos);
  // And the metrics agree that the victim's adoption counter exists.
  EXPECT_NE(run.prometheus.find("triad_node_adoptions_total{node=\"3\"}"),
            std::string::npos);
}

TEST(ObsDetectors, HonestRunRaisesNoAlarmsAndDropsNoEvents) {
  exp::Scenario sc(observed_config(42));
  sc.start();
  sc.run_until(minutes(3));
  ASSERT_NE(sc.detectors(), nullptr);
  EXPECT_TRUE(sc.detectors()->alarms().empty());
  EXPECT_EQ(sc.detectors()->first_alarm_at(), -1);
  ASSERT_NE(sc.trace(), nullptr);
  EXPECT_EQ(sc.trace()->dropped(), 0u);
  // The export carries explicit zeros for every detector family plus the
  // drop counter, so dashboards can tell "quiet" from "not wired up".
  std::ostringstream prom;
  sc.metrics()->write_prometheus(prom);
  for (const char* kind : {"slope", "disagreement", "jump"}) {
    EXPECT_NE(prom.str().find("triad_detector_alarms_total{detector=\"" +
                              std::string(kind) + "\"} 0"),
              std::string::npos);
  }
  EXPECT_NE(prom.str().find("triad_detector_first_alarm_seconds -1"),
            std::string::npos);
  EXPECT_NE(prom.str().find("obs_trace_dropped_total 0"), std::string::npos);
}

TEST(ObsDetectors, FMinusAlarmsPrecedeTheFirstHonestJump) {
  exp::Scenario sc(observed_config(9));
  attacks::DelayAttackConfig attack;
  attack.kind = attacks::AttackKind::kFMinus;
  attack.victim = sc.node_address(2);
  attack.ta_address = sc.ta_address();
  attack.added_delay = milliseconds(100);
  sc.add_delay_attack(attack);
  sc.start();
  sc.run_until(minutes(3));
  ASSERT_NE(sc.detectors(), nullptr);
  ASSERT_FALSE(sc.detectors()->alarms().empty());
  // The paper's detection story: the slope/disagreement alarms fire at
  // the victim's poisoned calibration, before any honest node adopts
  // the fast clock (the first infection jump).
  SimTime first_honest_jump = 0;
  for (const TraceEvent& event : sc.trace()->events()) {
    if (event.type != TraceEventType::kAdoption) continue;
    if (event.node == attack.victim || event.peer != attack.victim) continue;
    first_honest_jump = event.at;
    break;
  }
  ASSERT_GT(first_honest_jump, 0);
  EXPECT_LT(sc.detectors()->first_alarm_at(), first_honest_jump);
}

TEST(ObsForensics, FMinusReportIsDeterministicAndBlamesTheVictim) {
  const ObservedRun first = run_observed(9, /*attack=*/true);
  const ObservedRun second = run_observed(9, /*attack=*/true);
  std::size_t rejected = 0;
  std::vector<TraceEvent> events = parse_jsonl(first.jsonl, &rejected);
  EXPECT_EQ(rejected, 0u);
  ASSERT_FALSE(events.empty());
  const std::string report = forensic_report(events);
  EXPECT_EQ(report, forensic_report(parse_jsonl(second.jsonl, nullptr)));
  // The victim (address 3) runs ~10% slow after the poisoned
  // calibration; the report names it and measures the detection lead.
  EXPECT_NE(report.find("suspect: node 3"), std::string::npos);
  // A positive lead: the first alarm precedes the first significant jump.
  EXPECT_NE(report.find("\ndetection latency: +"), std::string::npos);
  // JSON rendering stays deterministic too.
  ForensicOptions options;
  options.json = true;
  const std::string json = forensic_report(events, options);
  EXPECT_EQ(json, forensic_report(std::move(events), options));
  EXPECT_NE(json.find("\"jumps\":["), std::string::npos);
}

TEST(ObsForensics, FMinusSpansChainBackToTheVictimCalibration) {
  const ObservedRun run = run_observed(9, /*attack=*/true);
  const SpanIndex index(parse_jsonl(run.jsonl, nullptr));
  ASSERT_FALSE(index.spans().size() < 2);
  // Find an honest node's infection: a forward adoption sourced from the
  // victim (address 3), then walk its cause edge back to the poisoned
  // calibration.
  const Span* infection = nullptr;
  for (const Span& span : index.spans()) {
    if (span.has_adoption && span.node != 3 && span.adoption_source == 3 &&
        span.adoption_step_ns > milliseconds(5)) {
      infection = &span;
      break;
    }
  }
  ASSERT_NE(infection, nullptr) << "no honest node adopted the fast clock";
  const auto chain = index.chain(infection->id);
  ASSERT_GE(chain.size(), 2u);
  EXPECT_EQ(chain[1]->node, 3u);
  EXPECT_TRUE(chain[1]->has_calibration);
  // The poisoned slope is ~10% below nominal 2.9 GHz.
  EXPECT_LT(chain[1]->calib_slope_hz, 2.7e9);
  EXPECT_GT(chain[1]->calib_slope_hz, 2.5e9);
}

TEST(ObsForensics, LongJumpChainsPrintLinearReports) {
  // Span i calibrates on node i+1, then jumps 10 ms onto node i's clock:
  // its cause is span i-1, so span i's chain is i+1 spans long. Printed
  // in full, the chains would total k²/2 links; capped, each jump costs
  // a bounded number of bytes.
  constexpr std::uint32_t kSpans = 4096;
  const auto id_of = [](std::uint32_t i) {
    return make_span_id(i % 1000 + 1, i / 1000 + 1);
  };
  std::vector<TraceEvent> events;
  for (std::uint32_t i = 0; i < kSpans; ++i) {
    events.push_back(calibration_event(10 * i, i + 1, id_of(i), 2.9e9));
    if (i > 0) {
      events.push_back(adoption_event(10 * i + 5, i + 1, i, id_of(i), 0,
                                      milliseconds(10)));
    }
  }
  // Every span but the first jumps; uncapped, the average jump would
  // print ~2,000 chain links (~100 KiB).
  constexpr std::size_t kJumps = kSpans - 1;
  constexpr std::size_t kBytesPerJump = 1500;
  const std::size_t more = kJumps - kMaxChainLinks;
  const std::string text = forensic_report(events);
  EXPECT_LT(text.size(), kJumps * kBytesPerJump);
  EXPECT_NE(text.find(" <- \u2026 (" + std::to_string(more) + " more)\n"),
            std::string::npos);
  // A chain within the cap prints whole.
  EXPECT_NE(text.find("node 2 jumped +10.0 ms <- adoption from node 1 <- "
                      "node 1 calibrated slope 2900.000 MHz (span 1:1)\n"),
            std::string::npos);
  ForensicOptions options;
  options.json = true;
  const std::string json = forensic_report(std::move(events), options);
  EXPECT_LT(json.size(), kJumps * kBytesPerJump);
  EXPECT_NE(json.find("\"chain_more\":" + std::to_string(more) + "}"),
            std::string::npos);
}

TEST(ObsForensics, CappedChainsCountWhatTheyLeaveOut) {
  // 300 calibration spans, then each adopts from a pseudo-random node:
  // span i's cause is that node's span. Every span has a cause, so every
  // chain is a tail ending in a loop, some of them past the cap. Each
  // jump keeps chain()'s first 1 + kMaxChainLinks spans and counts the
  // rest.
  constexpr std::uint32_t kSpans = 300;
  std::vector<TraceEvent> events;
  for (std::uint32_t i = 0; i < kSpans; ++i) {
    events.push_back(calibration_event(i, i + 1, make_span_id(i + 1, 1),
                                       2.9e9));
  }
  std::uint64_t state = 12345;
  for (std::uint32_t i = 0; i < kSpans; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    // Mostly a near predecessor (long chains), sometimes any node (loops).
    const std::uint32_t back = static_cast<std::uint32_t>(state >> 33) % 40;
    const NodeId source = back < 36 ? (i > back ? i - back : 1)
                                    : static_cast<NodeId>(back * i % kSpans) + 1;
    events.push_back(adoption_event(kSpans + i, i + 1, source,
                                    make_span_id(i + 1, 1), 0,
                                    milliseconds(10)));
  }
  const SpanIndex index(events);
  const std::vector<JumpFact> jumps = significant_jumps(index, 0, 5.0);
  std::size_t capped = 0;
  for (const JumpFact& jump : jumps) {
    const std::vector<const Span*> full = index.chain(jump.span->id);
    ASSERT_EQ(jump.chain.size() + jump.chain_more, full.size());
    ASSERT_LE(jump.chain.size(), 1 + kMaxChainLinks);
    EXPECT_TRUE(std::equal(jump.chain.begin(), jump.chain.end(),
                           full.begin()));
    if (jump.chain_more > 0) ++capped;
  }
  EXPECT_GT(capped, 10u);
  EXPECT_LT(capped, jumps.size());
}

// --- report equivalence oracle --------------------------------------------

// 64-bit FNV-1a, the digest perfbench/digests.txt stores for reports.
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// The seeded F- trace, and the same events split into one NodeStream per
// origin node (first-appearance order), as triad_mon would collect them.
class ObsReportOracle : public ::testing::Test {
 protected:
  void SetUp() override {
    events_ = parse_jsonl(run_observed(9, /*attack=*/true).jsonl, nullptr);
    std::map<NodeId, std::size_t> slot;
    for (const TraceEvent& event : events_) {
      auto [it, inserted] = slot.emplace(event.node, streams_.size());
      if (inserted) streams_.push_back(NodeStream{event.node, {}});
      streams_[it->second].events.push_back(event);
    }
  }

  std::string forensic(bool json) const {
    ForensicOptions options;
    options.json = json;
    return forensic_report(events_, options);
  }

  std::string cluster(bool json) const {
    ClusterReportOptions options;
    options.json = json;
    return cluster_report(streams_, options);
  }

  std::vector<TraceEvent> events_;
  std::vector<NodeStream> streams_;
};

// The `"alarms":[...]` array that follows position `from` in `json`.
std::string alarms_after(const std::string& json, std::size_t from) {
  const std::string key = "\"alarms\":[";
  const std::size_t open = json.find(key, from);
  if (open == std::string::npos) return "<none>";
  int depth = 0;
  for (std::size_t i = open + key.size() - 1; i < json.size(); ++i) {
    if (json[i] == '[') ++depth;
    if (json[i] == ']' && --depth == 0) return json.substr(open, i + 1 - open);
  }
  return "<unterminated>";
}

// Stored digests of all four report renderings: any byte change to
// forensic_report or cluster_report output fails here. Regenerate only
// when a change is meant to alter report bytes.
TEST_F(ObsReportOracle, ReportBytesMatchStoredDigests) {
  // Three nodes, the TA, and node 0 (cluster-wide detector alarms).
  ASSERT_EQ(streams_.size(), 5u);
  EXPECT_EQ(fnv1a_hex(forensic(false)), "910f0a5009622327");
  EXPECT_EQ(fnv1a_hex(forensic(true)), "321e4f515f86c355");
  EXPECT_EQ(fnv1a_hex(cluster(false)), "d211ea3e6328107b");
  EXPECT_EQ(fnv1a_hex(cluster(true)), "aa36a3482a95fc0a");
}

// triad_mon's per-node verdict equals triad_trace's replay of that
// node's stream alone.
TEST_F(ObsReportOracle, PerNodeAlarmsMatchSingleStreamForensics) {
  const std::string cluster_json = cluster(true);
  ForensicOptions options;
  options.json = true;
  std::size_t alarmed_nodes = 0;
  for (const NodeStream& stream : streams_) {
    const std::string marker =
        "{\"node\":" + std::to_string(stream.node) + ",\"events\":";
    const std::size_t at = cluster_json.find(marker);
    ASSERT_NE(at, std::string::npos) << "node " << stream.node;
    const std::string single =
        alarms_after(forensic_report(stream.events, options), 0);
    EXPECT_EQ(alarms_after(cluster_json, at), single) << "node " << stream.node;
    if (single != "\"alarms\":[]") ++alarmed_nodes;
  }
  EXPECT_GT(alarmed_nodes, 0u);
}

}  // namespace
}  // namespace triad::obs
