// Unit tests for the vine::obs observability layer: event JSON round-trips,
// schema accept/reject per kind, TraceSink sequencing and monotonic clamping,
// TraceValidator cross-event ordering, trace file loading, MetricsRegistry,
// and ViewBuilder derivations (worker loss, transfer matrix, bandwidth bins).
#include <gtest/gtest.h>

#include <fstream>

#include "fsutil/fsutil.hpp"
#include "obs/metrics.hpp"
#include "obs/schema.hpp"
#include "obs/trace_sink.hpp"
#include "obs/views.hpp"

namespace vine::obs {
namespace {

// ---------------------------------------------------------------- events ----

TEST(ObsEvent, KindNamesRoundTrip) {
  const EventKind kinds[] = {
      EventKind::task_state,    EventKind::transfer_begin,
      EventKind::transfer_end,  EventKind::cache_insert,
      EventKind::cache_evict,   EventKind::worker_join,
      EventKind::worker_lost,   EventKind::worker_evicted,
      EventKind::sched_pass,    EventKind::fault_injected,
      EventKind::counters,
  };
  for (EventKind k : kinds) {
    EventKind back;
    ASSERT_TRUE(kind_from_name(kind_name(k), &back)) << kind_name(k);
    EXPECT_EQ(back, k);
  }
  EventKind out;
  EXPECT_FALSE(kind_from_name("not_a_kind", &out));
  EXPECT_FALSE(kind_from_name("", &out));
}

// Round-trip every factory through JSON and back, checking the meaningful
// fields survive exactly.
TEST(ObsEvent, JsonRoundTripAllKinds) {
  std::vector<Event> evs;
  evs.push_back(Event::make_task_state(1.5, 42, "running", "w1", "process"));
  evs.push_back(Event::make_task_state(2.0, 43, "failed", "w2", "mini", false));
  evs.push_back(Event::make_transfer_begin(3.0, "f.dat", "worker", "w0", "w1",
                                           "w1", 1 << 20, "xfer-1"));
  evs.push_back(Event::make_transfer_end(4.0, "f.dat", "worker", "w0", "w1",
                                         "w1", 1 << 20, "xfer-1", true));
  evs.push_back(Event::make_transfer_end(4.5, "g.dat", "url", "http://x/g",
                                         "w2", "w2", -1, "xfer-2", false,
                                         "timeout"));
  evs.push_back(Event::make_cache_insert(5.0, "w1", "f.dat", 77, "store"));
  evs.push_back(Event::make_cache_evict(6.0, "w1", "f.dat", "capacity"));
  evs.push_back(Event::make_worker_join(0.0, "w3"));
  evs.push_back(Event::make_worker_lost(7.0, "w3", "disconnect"));
  evs.push_back(Event::make_worker_evicted(8.0, "w4", "heartbeat"));
  evs.push_back(Event::make_sched_pass(9.0, 10, 4));
  evs.push_back(Event::make_fault_injected(9.5, "crash", "w1"));
  evs.push_back(Event::make_counters(10.0, {{"a", 1}, {"b", -2}}));

  std::uint64_t seq = 0;
  for (Event& ev : evs) {
    ev.seq = ++seq;  // factories leave seq to the sink; fake it here
    ev.emitter = "test";
    auto line = event_to_jsonl(ev);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    auto parsed = json::parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_TRUE(validate_event_json(*parsed).ok())
        << validate_event_json(*parsed).error().message << "\n" << line;
    auto back = event_from_json(*parsed);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back->seq, ev.seq);
    EXPECT_DOUBLE_EQ(back->t, ev.t);
    EXPECT_EQ(back->kind, ev.kind);
    EXPECT_EQ(back->emitter, ev.emitter);
    EXPECT_EQ(back->worker, ev.worker);
    EXPECT_EQ(back->task, ev.task);
    EXPECT_EQ(back->state, ev.state);
    EXPECT_EQ(back->category, ev.category);
    EXPECT_EQ(back->file, ev.file);
    EXPECT_EQ(back->source, ev.source);
    EXPECT_EQ(back->source_key, ev.source_key);
    EXPECT_EQ(back->dest, ev.dest);
    EXPECT_EQ(back->xfer, ev.xfer);
    EXPECT_EQ(back->bytes, ev.bytes);
    EXPECT_EQ(back->ok, ev.ok);
    EXPECT_EQ(back->detail, ev.detail);
    EXPECT_EQ(back->scanned, ev.scanned);
    EXPECT_EQ(back->dispatched, ev.dispatched);
    EXPECT_EQ(back->counters, ev.counters);
  }
}

TEST(ObsEvent, CanonicalJsonOmitsUnsetFields) {
  Event ev = Event::make_worker_join(1.0, "w0");
  ev.seq = 1;
  ev.emitter = "manager";
  std::string line = event_to_jsonl(ev);
  // Only the meaningful fields appear; no task/file/transfer noise.
  EXPECT_EQ(line.find("\"task\""), std::string::npos) << line;
  EXPECT_EQ(line.find("\"file\""), std::string::npos) << line;
  EXPECT_EQ(line.find("\"xfer\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"kind\":\"worker_join\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"v\":" + std::to_string(kSchemaVersion)),
            std::string::npos)
      << line;
}

// ---------------------------------------------------------------- schema ----

json::Value valid_base(const char* kind) {
  json::Object o;
  o["v"] = kSchemaVersion;
  o["seq"] = 1;
  o["t"] = 0.5;
  o["kind"] = kind;
  o["emitter"] = "manager";
  return json::Value(std::move(o));
}

TEST(ObsSchema, RejectsMissingCommonFields) {
  auto obj = valid_base("worker_join");
  obj["worker"] = "w0";
  ASSERT_TRUE(validate_event_json(obj).ok());

  for (const char* key : {"v", "seq", "t", "kind", "emitter"}) {
    auto broken = obj;
    broken.as_object().erase(key);
    EXPECT_FALSE(validate_event_json(broken).ok()) << "missing " << key;
  }
}

TEST(ObsSchema, RejectsWrongVersionAndBadValues) {
  auto obj = valid_base("worker_join");
  obj["worker"] = "w0";

  auto wrong_v = obj;
  wrong_v["v"] = kSchemaVersion + 1;
  EXPECT_FALSE(validate_event_json(wrong_v).ok());

  auto zero_seq = obj;
  zero_seq["seq"] = 0;
  EXPECT_FALSE(validate_event_json(zero_seq).ok());

  auto negative_t = obj;
  negative_t["t"] = -1.0;
  EXPECT_FALSE(validate_event_json(negative_t).ok());

  auto bad_kind = obj;
  bad_kind["kind"] = "warp_drive";
  EXPECT_FALSE(validate_event_json(bad_kind).ok());
}

TEST(ObsSchema, TaskStateVocabulary) {
  auto obj = valid_base("task_state");
  obj["task"] = 7;
  obj["ok"] = true;
  for (const char* st : {"ready", "dispatched", "running", "done", "failed"}) {
    obj["state"] = st;
    EXPECT_TRUE(validate_event_json(obj).ok()) << st;
  }
  obj["state"] = "meditating";
  EXPECT_FALSE(validate_event_json(obj).ok());
  obj["state"] = "done";
  obj["task"] = 0;  // task ids are positive
  EXPECT_FALSE(validate_event_json(obj).ok());
}

TEST(ObsSchema, TransferSourceVocabularyAndSourceKey) {
  auto obj = valid_base("transfer_end");
  obj["file"] = "f.dat";
  obj["dest"] = "w1";
  obj["xfer"] = "u-1";
  obj["ok"] = true;

  obj["source"] = "manager";  // manager needs no source_key
  EXPECT_TRUE(validate_event_json(obj).ok());

  obj["source"] = "worker";  // non-manager sources require the key
  EXPECT_FALSE(validate_event_json(obj).ok());
  obj["source_key"] = "w0";
  EXPECT_TRUE(validate_event_json(obj).ok());

  obj["source"] = "carrier_pigeon";
  EXPECT_FALSE(validate_event_json(obj).ok());

  obj["source"] = "url";
  obj["source_key"] = "http://x/f";
  obj.as_object().erase("ok");  // transfer_end requires ok; begin does not
  EXPECT_FALSE(validate_event_json(obj).ok());
  obj["kind"] = "transfer_begin";
  EXPECT_TRUE(validate_event_json(obj).ok());
}

TEST(ObsSchema, PerKindRequiredFields) {
  auto evict = valid_base("cache_evict");
  evict["worker"] = "w0";
  evict["file"] = "f";
  EXPECT_FALSE(validate_event_json(evict).ok());  // evict reason required
  evict["detail"] = "capacity";
  EXPECT_TRUE(validate_event_json(evict).ok());

  auto sched = valid_base("sched_pass");
  sched["scanned"] = 3;
  sched["dispatched"] = 5;  // cannot dispatch more than scanned
  EXPECT_FALSE(validate_event_json(sched).ok());
  sched["dispatched"] = 3;
  EXPECT_TRUE(validate_event_json(sched).ok());

  auto fault = valid_base("fault_injected");
  EXPECT_FALSE(validate_event_json(fault).ok());  // fault kind required
  fault["detail"] = "crash";
  EXPECT_TRUE(validate_event_json(fault).ok());

  auto counters = valid_base("counters");
  EXPECT_FALSE(validate_event_json(counters).ok());
  json::Object snap;
  snap["tasks"] = 5;
  counters["counters"] = json::Value(std::move(snap));
  EXPECT_TRUE(validate_event_json(counters).ok());
  counters["counters"]["bad"] = "not-an-int";
  EXPECT_FALSE(validate_event_json(counters).ok());
}

TEST(ObsSchema, ValidatorEnforcesOrdering) {
  TraceValidator v;
  auto a = valid_base("worker_join");
  a["worker"] = "w0";
  a["seq"] = 1;
  a["t"] = 2.0;
  ASSERT_TRUE(v.feed(a).ok());

  auto dup = a;  // duplicate seq
  EXPECT_FALSE(v.feed(dup).ok());

  auto back_in_time = a;  // same emitter, earlier t
  back_in_time["seq"] = 2;
  back_in_time["t"] = 1.0;
  EXPECT_FALSE(v.feed(back_in_time).ok());

  // A *different* emitter may start at an earlier absolute t. (The rejected
  // event above still consumed seq 2 — the validator is fail-fast, not
  // transactional, since readers abort at the first violation anyway.)
  auto other = valid_base("worker_join");
  other["worker"] = "w1";
  other["emitter"] = "worker:w1";
  other["seq"] = 3;
  other["t"] = 0.25;
  EXPECT_TRUE(v.feed(other).ok());
  EXPECT_EQ(v.events(), 2u);

  EXPECT_FALSE(v.feed_line("").ok());
  EXPECT_FALSE(v.feed_line("{not json").ok());
}

TEST(ObsSchema, LoadTraceFileReportsLineNumbers) {
  TempDir dir("obs-test");
  auto path = (dir.path() / "trace.jsonl").string();

  TraceSink sink({.retain_events = false, .jsonl_path = path});
  sink.emit("sim", Event::make_worker_join(0.0, "w0"));
  sink.emit("sim", Event::make_worker_join(0.0, "w1"));
  sink.flush();
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"v\":" << kSchemaVersion << ",\"seq\":99}\n";  // line 3: schema-invalid
  }

  auto loaded = load_trace_file(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find(":3:"), std::string::npos)
      << loaded.error().message;

  EXPECT_FALSE(load_trace_file((dir.path() / "missing.jsonl").string()).ok());
}

// ------------------------------------------------------------ trace sink ----

TEST(ObsSink, AssignsSequenceAndClampsPerEmitterClock) {
  TraceSink sink({.retain_events = true, .jsonl_path = ""});
  sink.emit("manager", Event::make_worker_join(1.0, "w0"));
  // Same emitter reports an earlier timestamp (thread raced the clock): the
  // sink clamps it up so per-emitter time never goes backwards.
  sink.emit("manager", Event::make_worker_join(0.5, "w1"));
  // A different emitter's clock is independent.
  sink.emit("worker:w0", Event::make_cache_insert(0.25, "w0", "f", 1, "store"));

  auto evs = sink.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].seq, 1u);
  EXPECT_EQ(evs[1].seq, 2u);
  EXPECT_EQ(evs[2].seq, 3u);
  EXPECT_DOUBLE_EQ(evs[0].t, 1.0);
  EXPECT_DOUBLE_EQ(evs[1].t, 1.0);   // clamped from 0.5
  EXPECT_DOUBLE_EQ(evs[2].t, 0.25);  // untouched: different emitter
  EXPECT_EQ(evs[1].emitter, "manager");
  EXPECT_EQ(sink.event_count(), 3u);
}

TEST(ObsSink, StreamedFileValidatesAndMatchesRetained) {
  TempDir dir("obs-test");
  auto path = (dir.path() / "stream.jsonl").string();
  TraceSink sink({.retain_events = true, .jsonl_path = path});
  sink.emit("sim", Event::make_worker_join(0.0, "w0"));
  sink.emit("sim", Event::make_task_state(1.0, 1, "ready", "", "process"));
  sink.emit("sim", Event::make_task_state(2.0, 1, "done", "w0", "process"));
  sink.emit("sim", Event::make_counters(3.0, {{"tasks", 1}}));
  sink.flush();

  auto loaded = load_trace_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  auto retained = sink.events();
  ASSERT_EQ(loaded->size(), retained.size());
  for (std::size_t i = 0; i < retained.size(); ++i) {
    EXPECT_EQ(event_to_jsonl((*loaded)[i]), event_to_jsonl(retained[i])) << i;
  }

  // The sink's always-on views saw the same stream.
  EXPECT_EQ(sink.views().events_applied(), retained.size());
  ASSERT_EQ(sink.views().tasks().size(), 1u);
  EXPECT_EQ(sink.views().tasks()[0].worker, "w0");
}

TEST(ObsSink, RetentionOffKeepsViewsOnly) {
  TraceSink sink;  // no retention, no file
  sink.emit("sim", Event::make_worker_join(0.0, "w0"));
  EXPECT_EQ(sink.event_count(), 1u);
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(sink.views().events_applied(), 1u);
}

// --------------------------------------------------------------- metrics ----

TEST(ObsMetrics, CountersAndExposedGauges) {
  MetricsRegistry reg;
  Counter* c = reg.counter("sched.dispatched");
  c->inc();
  c->add(4);
  EXPECT_EQ(c->value(), 5);
  EXPECT_EQ(reg.counter("sched.dispatched"), c);  // get-or-create is stable

  std::int64_t gauge = 17;
  reg.expose("manager.tasks_done", &gauge);
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("sched.dispatched"), 5);
  EXPECT_EQ(snap.at("manager.tasks_done"), 17);

  gauge = 18;  // gauges are read live at snapshot time
  EXPECT_EQ(reg.snapshot().at("manager.tasks_done"), 18);

  reg.unexpose("manager.tasks_done");
  EXPECT_EQ(reg.snapshot().count("manager.tasks_done"), 0u);
}

// ----------------------------------------------------------------- views ----

TEST(ObsViews, WorkerLossClosesOpenActivity) {
  ViewBuilder vb;
  vb.apply(Event::make_worker_join(0.0, "w0"));
  vb.apply(Event::make_task_state(1.0, 1, "ready", "", "p"));
  vb.apply(Event::make_task_state(1.0, 1, "dispatched", "w0", "p"));
  vb.apply(Event::make_task_state(1.5, 1, "running", "w0", "p"));
  vb.apply(Event::make_transfer_begin(2.0, "f", "worker", "w1", "w0", "w0", 10,
                                      "x1"));
  // Worker dies with the task running and the transfer inflight: both must
  // be force-closed so the timeline does not stay busy forever.
  vb.apply(Event::make_worker_lost(3.0, "w0", "disconnect"));

  auto tl = vb.timelines(5.0).at("w0");
  ASSERT_FALSE(tl.empty());
  EXPECT_EQ(tl.back().state, WorkerState::idle);
  EXPECT_DOUBLE_EQ(tl.back().begin, 3.0);
  EXPECT_DOUBLE_EQ(tl.back().end, 5.0);
  auto u = vb.utilization("w0", 5.0);
  EXPECT_DOUBLE_EQ(u.busy, 1.5);      // 1.5 .. 3.0
  EXPECT_DOUBLE_EQ(u.transfer, 0.0);  // dominated by busy until loss
  EXPECT_DOUBLE_EQ(u.idle, 3.5);

  // The orphaned transfer's end event after loss must not underflow state.
  vb.apply(Event::make_transfer_end(4.0, "f", "worker", "w1", "w0", "w0", 10,
                                    "x1", false, "worker_lost"));
  auto u2 = vb.utilization("w0", 5.0);
  EXPECT_DOUBLE_EQ(u2.busy, 1.5);
  EXPECT_DOUBLE_EQ(u2.idle, 3.5);
}

TEST(ObsViews, TransferMatrixCountsOnlySuccesses) {
  ViewBuilder vb;
  vb.apply(Event::make_transfer_begin(1.0, "a", "manager", "", "w0", "w0", 100,
                                      "x1"));
  vb.apply(Event::make_transfer_end(2.0, "a", "manager", "", "w0", "w0", 100,
                                    "x1", true));
  vb.apply(Event::make_transfer_begin(1.0, "b", "worker", "w0", "w1", "w1", 50,
                                      "x2"));
  vb.apply(Event::make_transfer_end(2.5, "b", "worker", "w0", "w1", "w1", 50,
                                    "x2", true));
  vb.apply(Event::make_transfer_begin(3.0, "c", "url", "http://x/c", "w1",
                                      "w1", 999, "x3"));
  vb.apply(Event::make_transfer_end(3.5, "c", "url", "http://x/c", "w1", "w1",
                                    -1, "x3", false, "timeout"));

  const auto& m = vb.transfer_matrix();
  ASSERT_EQ(m.count("manager"), 1u);
  EXPECT_EQ(m.at("manager").at("w0").count, 1);
  EXPECT_EQ(m.at("manager").at("w0").bytes, 100);
  EXPECT_EQ(m.at("worker").at("w1").count, 1);
  EXPECT_EQ(m.at("worker").at("w1").bytes, 50);
  EXPECT_EQ(m.count("url"), 0u);  // failed transfer does not enter the matrix

  auto series = vb.bandwidth_series(1.0);
  // Completions at t=2.0 and t=2.5 land in bin [2,3): 150 bytes together.
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[2].t, 2.0);
  EXPECT_EQ(series[2].bytes, 150);
  EXPECT_EQ(series[0].bytes, 0);
}

TEST(ObsViews, CountersViewMergesTalliesAndSnapshot) {
  ViewBuilder vb;
  vb.apply(Event::make_worker_join(0.0, "w0"));
  vb.apply(Event::make_cache_insert(1.0, "w0", "f", 10, "store"));
  vb.apply(Event::make_cache_evict(2.0, "w0", "f", "capacity"));
  vb.apply(Event::make_counters(3.0, {{"sim.tasks_done", 7}}));

  auto cv = vb.counters_view();
  EXPECT_EQ(cv.at("events.worker_join"), 1);
  EXPECT_EQ(cv.at("events.cache_insert"), 1);
  EXPECT_EQ(cv.at("events.cache_evict"), 1);
  EXPECT_EQ(cv.at("sim.tasks_done"), 7);
}

// Every kind has a tally slot, the last enumerators included.
TEST(ObsViews, CountersViewTalliesEveryKind) {
  ViewBuilder vb;
  vb.apply(Event::make_replica_repair(0.0, "w0", "f"));
  vb.apply(Event::make_factory_scale(1.0, "up:1 pool:2"));
  vb.apply(Event::make_factory_scale(2.0, "down:1 pool:1"));

  auto cv = vb.counters_view();
  EXPECT_EQ(cv.at("events.replica_repair"), 1);
  EXPECT_EQ(cv.at("events.factory_scale"), 2);
}

}  // namespace
}  // namespace vine::obs
