// dtp_serve subsystem tests (DESIGN.md §12): scheduling policy, the JSON
// protocol, and the deterministic in-process soak — ≥16 concurrent jobs with
// injected NaN faults, divergence, timeouts, deadline misses, mid-run
// cancellation, pause/resume, preemption, saturation shedding, and a
// drain-then-restart recovery pass.  Everything runs against the real
// JobManager with no sockets, so the schedule is driven purely by the
// deterministic PlacerControl hooks and the manager's own threads (which is
// also what the ThreadSanitizer CI job runs).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common/json_parse.h"
#include "common/json_writer.h"
#include "obs/metrics.h"
#include "serve/manager.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "serve/telemetry.h"

using namespace dtp;
using namespace dtp::serve;

namespace {

std::string fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

JobSpec demo_spec(int cells, int iters, const std::string& mode = "wl",
                  const std::string& client = "anon") {
  JobSpec s;
  s.demo_cells = cells;
  s.max_iters = iters;
  s.mode = mode;
  s.client = client;
  return s;
}

ManagerOptions fast_opts(const std::string& artifact_dir = "") {
  ManagerOptions o;
  o.workers = 4;
  o.queue_capacity = 32;
  o.artifact_dir = artifact_dir;
  o.backoff_base_ms = 0;       // retries must not slow the soak down
  o.watchdog_period_sec = 0.005;
  return o;
}

JobState wait_terminal(JobManager& mgr, uint64_t id, double timeout_sec = 30) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    const auto rec = mgr.status(id);
    if (rec && job_state_is_terminal(rec->state)) return rec->state;
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() > timeout_sec)
      return rec ? rec->state : JobState::Rejected;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

JobState wait_state(JobManager& mgr, uint64_t id, JobState want,
                    double timeout_sec = 30) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    const auto rec = mgr.status(id);
    if (rec && rec->state == want) return rec->state;
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() > timeout_sec)
      return rec ? rec->state : JobState::Rejected;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::vector<std::string> prom_split(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol > pos) lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

// Value of the first sample line whose name (incl. any label block) matches
// `series` exactly; -1 when the series is absent.
double prom_sample(const std::string& text, const std::string& series) {
  for (const std::string& line : prom_split(text)) {
    if (line.rfind(series + " ", 0) == 0)
      return std::atof(line.substr(series.size() + 1).c_str());
  }
  return -1.0;
}

}  // namespace

// ------------------------------------------------------------------ queue --

TEST(JobQueue, PriorityBeatsEverything) {
  JobQueue q(8);
  q.push({1, 0, "a", 0.0, 1});
  q.push({2, 5, "a", 0.0, 2});
  q.push({3, 1, "b", 0.0, 3});
  QueueEntry e;
  ASSERT_TRUE(q.pick({}, &e));
  EXPECT_EQ(e.id, 2u);
  ASSERT_TRUE(q.pick({}, &e));
  EXPECT_EQ(e.id, 3u);
  ASSERT_TRUE(q.pick({}, &e));
  EXPECT_EQ(e.id, 1u);
  EXPECT_FALSE(q.pick({}, &e));
}

TEST(JobQueue, FairShareAmongEqualPriority) {
  JobQueue q(8);
  q.push({1, 0, "busy", 0.0, 1});
  q.push({2, 0, "idle", 0.0, 2});
  QueueEntry e;
  // "busy" already has 2 jobs running; "idle" has none -> idle goes first
  // despite the later submission.
  ASSERT_TRUE(q.pick({{"busy", 2}}, &e));
  EXPECT_EQ(e.id, 2u);
}

TEST(JobQueue, EarliestDeadlineAmongFairEquals) {
  JobQueue q(8);
  q.push({1, 0, "a", 0.0, 1});    // no deadline: sorts last
  q.push({2, 0, "b", 90.0, 2});
  q.push({3, 0, "c", 10.0, 3});
  QueueEntry e;
  ASSERT_TRUE(q.pick({}, &e));
  EXPECT_EQ(e.id, 3u);
  ASSERT_TRUE(q.pick({}, &e));
  EXPECT_EQ(e.id, 2u);
  ASSERT_TRUE(q.pick({}, &e));
  EXPECT_EQ(e.id, 1u);
}

TEST(JobQueue, FifoIsTheFinalTiebreakAndCapIsEnforced) {
  JobQueue q(2);
  EXPECT_TRUE(q.push({1, 0, "a", 0.0, 1}));
  EXPECT_TRUE(q.push({2, 0, "a", 0.0, 2}));
  EXPECT_FALSE(q.push({3, 0, "a", 0.0, 3}));           // shed
  EXPECT_TRUE(q.push({4, 0, "a", 0.0, 4}, /*force=*/true));  // requeue path
  QueueEntry e;
  ASSERT_TRUE(q.pick({}, &e));
  EXPECT_EQ(e.id, 1u);
}

// ------------------------------------------------------------- spec + json --

TEST(JobSpec, JsonRoundTrip) {
  JobSpec s = demo_spec(500, 300, "dt", "ci");
  s.priority = 7;
  s.deadline_sec = 12.5;
  s.time_budget_sec = 3.0;
  s.fault_spec = "timing_grad@50+2";
  s.fault_seed = 9;
  s.cancel_at_iter = 77;
  JsonWriter w;
  s.to_json(w);
  const JobSpec back = JobSpec::from_json(JsonParser::parse(w.str()));
  EXPECT_EQ(back.demo_cells, 500);
  EXPECT_EQ(back.mode, "dt");
  EXPECT_EQ(back.client, "ci");
  EXPECT_EQ(back.priority, 7);
  EXPECT_DOUBLE_EQ(back.deadline_sec, 12.5);
  EXPECT_EQ(back.fault_spec, "timing_grad@50+2");
  EXPECT_EQ(back.fault_seed, 9u);
  EXPECT_EQ(back.cancel_at_iter, 77);
  EXPECT_EQ(back.pause_at_iter, -1);
}

TEST(JobSpec, ValidateRejectsNonsense) {
  EXPECT_NE(JobSpec{}.validate(), "");  // no workload at all
  JobSpec s = demo_spec(100, 50);
  EXPECT_EQ(s.validate(), "");
  s.mode = "quantum";
  EXPECT_NE(s.validate(), "");
  s = demo_spec(100, 0);
  EXPECT_NE(s.validate(), "");
  s = demo_spec(100, 50);
  s.priority = 1000;
  EXPECT_NE(s.validate(), "");
  s = demo_spec(100, 50);
  s.lib_path = "also_files.lib";
  s.netlist_path = "x.v";
  EXPECT_NE(s.validate(), "");  // demo and files are mutually exclusive
}

// --------------------------------------------------------------- protocol --

TEST(Protocol, MalformedAndUnknownRequestsAnswerCleanly) {
  JobManager mgr(fast_opts());
  bool drain = false;
  for (const char* junk :
       {"", "not json at all", "{\"cmd\":", "[1,2,3]", "{\"cmd\":\"warp\"}",
        "{\"cmd\":\"submit\"}", "{\"cmd\":\"status\"}",
        "{\"cmd\":\"submit\",\"spec\":{\"demo_cells\":\"soup\"}}"}) {
    const std::string resp = handle_request(mgr, junk, &drain);
    const JsonValue v = JsonParser::parse(resp);  // must parse...
    ASSERT_TRUE(v.is_object());
    EXPECT_FALSE(v.at("ok").boolean) << junk;     // ...and must refuse
    EXPECT_FALSE(drain);
  }
}

TEST(Protocol, SubmitStatusStatsDrain) {
  JobManager mgr(fast_opts());
  bool drain = false;
  const std::string resp = handle_request(
      mgr,
      "{\"cmd\":\"submit\",\"spec\":{\"demo_cells\":150,\"max_iters\":30,"
      "\"mode\":\"wl\"}}",
      &drain);
  const JsonValue v = JsonParser::parse(resp);
  ASSERT_TRUE(v.at("ok").boolean) << resp;
  const uint64_t id = static_cast<uint64_t>(v.num("id"));
  EXPECT_EQ(wait_terminal(mgr, id), JobState::Done);

  const JsonValue st = JsonParser::parse(
      handle_request(mgr, "{\"cmd\":\"status\",\"id\":" + std::to_string(id) +
                              "}",
                     &drain));
  EXPECT_EQ(st.at("job").str("state"), "done");

  const JsonValue stats =
      JsonParser::parse(handle_request(mgr, "{\"cmd\":\"stats\"}", &drain));
  EXPECT_EQ(stats.at("stats").num("done"), 1.0);

  handle_request(mgr, "{\"cmd\":\"drain\"}", &drain);
  EXPECT_TRUE(drain);
}

TEST(Protocol, ProfileVerbServesRollingWindowSummary) {
  JobManager mgr(fast_opts());
  bool drain = false;
  const JsonValue whole =
      JsonParser::parse(handle_request(mgr, "{\"cmd\":\"profile\"}", &drain));
  ASSERT_TRUE(whole.at("ok").boolean);
  EXPECT_EQ(whole.at("profile").str("schema"), "dtp.profile.v1");

  const JsonValue windowed = JsonParser::parse(handle_request(
      mgr, "{\"cmd\":\"profile\",\"window_sec\":5}", &drain));
  ASSERT_TRUE(windowed.at("ok").boolean);
  EXPECT_LE(windowed.at("profile").num("window_sec"),
            whole.at("profile").num("duration_sec") + 5.0 + 1.0);

  const JsonValue bad = JsonParser::parse(handle_request(
      mgr, "{\"cmd\":\"profile\",\"window_sec\":\"soon\"}", &drain));
  EXPECT_FALSE(bad.at("ok").boolean);
  const JsonValue negative = JsonParser::parse(handle_request(
      mgr, "{\"cmd\":\"profile\",\"window_sec\":-1}", &drain));
  EXPECT_FALSE(negative.at("ok").boolean);
  mgr.drain();
}

TEST(Protocol, ProfileVerbRefusesWhenProfilerDisabled) {
  ManagerOptions opts = fast_opts();
  opts.profile_hz = 0.0;
  JobManager mgr(opts);
  bool drain = false;
  const JsonValue v =
      JsonParser::parse(handle_request(mgr, "{\"cmd\":\"profile\"}", &drain));
  EXPECT_FALSE(v.at("ok").boolean);
  EXPECT_NE(v.str("error").find("profile"), std::string::npos);
  mgr.drain();
}

// ------------------------------------------------------------------- soak --

TEST(Soak, SixteenJobsWithFaultsAllReachTerminalStates) {
  const std::string art = fresh_dir("dtp_serve_soak");
  ManagerOptions opts = fast_opts(art);
  JobManager mgr(opts);

  std::vector<uint64_t> ids;
  auto submit_ok = [&](const JobSpec& s) {
    const SubmitResult r = mgr.submit(s);
    ASSERT_TRUE(r.accepted) << r.reason;
    ids.push_back(r.id);
  };

  // 1-6: healthy jobs across modes and clients.
  submit_ok(demo_spec(200, 60, "wl", "alice"));
  submit_ok(demo_spec(200, 60, "dt", "alice"));
  submit_ok(demo_spec(150, 50, "nw", "bob"));
  submit_ok(demo_spec(250, 40, "wl", "bob"));
  submit_ok(demo_spec(150, 80, "dt", "carol"));
  submit_ok(demo_spec(200, 30, "wl", "carol"));
  // 7: persistent NaN-position faults exhaust the recovery budget, the
  // retry, and the WL-only fallback -> Failed.
  {
    JobSpec s = demo_spec(150, 60, "dt", "chaos");
    s.fault_spec = "position@5+forever";
    s.max_retries = 1;
    submit_ok(s);
  }
  // 8: unrecoverable gradient poisoning, no retries -> Failed (the
  // wirelength-only fallback also sees the faults).
  {
    JobSpec s = demo_spec(150, 60, "wl", "chaos");
    s.fault_spec = "total_grad@5+forever";
    s.max_retries = 0;
    submit_ok(s);
  }
  // 9: recoverable fault burst -> internal rollbacks, job still Done.
  {
    JobSpec s = demo_spec(150, 60, "wl", "chaos");
    s.fault_spec = "total_grad@10+2*8";
    submit_ok(s);
  }
  // 10: deterministic cancel mid-run.
  {
    JobSpec s = demo_spec(200, 4000, "wl", "dave");
    s.cancel_at_iter = 15;
    submit_ok(s);
  }
  // 11: deterministic pause mid-run; resumed below.
  {
    JobSpec s = demo_spec(200, 60, "wl", "dave");
    s.pause_at_iter = 10;
    submit_ok(s);
  }
  // 12: per-attempt wall budget -> TimedOut with a valid placement.
  {
    JobSpec s = demo_spec(300, 100000, "wl", "erin");
    s.time_budget_sec = 0.02;
    submit_ok(s);
  }
  // 13: deadline so tight the watchdog fires -> TimedOut.  The design is
  // large enough that GP cannot converge inside the deadline.
  {
    JobSpec s = demo_spec(3000, 100000, "wl", "erin");
    s.deadline_sec = 0.05;
    submit_ok(s);
  }
  // 14-16: more healthy load while the chaos jobs churn.
  submit_ok(demo_spec(150, 40, "wl", "frank"));
  submit_ok(demo_spec(150, 40, "dt", "frank"));
  submit_ok(demo_spec(150, 40, "wl", "grace"));
  ASSERT_GE(ids.size(), 16u);

  // The paused job parks; resume it once it gets there.
  EXPECT_EQ(wait_state(mgr, ids[10], JobState::Paused), JobState::Paused);
  EXPECT_TRUE(mgr.resume(ids[10]));

  // Scrape #1 while the soak is still churning; compared against the
  // post-drain scrape below, every terminal counter must be monotone.
  const std::string scrape_mid = mgr.prometheus();

  ASSERT_TRUE(mgr.wait_idle(120.0)) << mgr.stats_json();

  // Every accepted job reached a definite terminal state.
  EXPECT_EQ(wait_terminal(mgr, ids[0]), JobState::Done);
  EXPECT_EQ(wait_terminal(mgr, ids[5]), JobState::Done);
  EXPECT_EQ(wait_terminal(mgr, ids[6]), JobState::Failed);
  EXPECT_EQ(wait_terminal(mgr, ids[7]), JobState::Failed);
  EXPECT_EQ(wait_terminal(mgr, ids[8]), JobState::Done);
  EXPECT_EQ(wait_terminal(mgr, ids[9]), JobState::Cancelled);
  EXPECT_EQ(wait_terminal(mgr, ids[10]), JobState::Done);
  EXPECT_EQ(wait_terminal(mgr, ids[11]), JobState::TimedOut);
  EXPECT_EQ(wait_terminal(mgr, ids[12]), JobState::TimedOut);
  for (uint64_t id : ids) {
    const auto rec = mgr.status(id);
    ASSERT_TRUE(rec.has_value());
    EXPECT_TRUE(job_state_is_terminal(rec->state))
        << "job " << id << " ended as " << job_state_name(rec->state);
  }

  // The failed job consumed its retry and its WL-only fallback.
  {
    const auto rec = mgr.status(ids[6]);
    EXPECT_EQ(rec->retries, 1);
    EXPECT_TRUE(rec->degraded);
    EXPECT_GE(rec->attempts, 3);
  }
  // Bookkeeping adds up and the terminal counters partition the accepts.
  const ManagerStats st = mgr.stats();
  EXPECT_EQ(st.accepted, ids.size());
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.submitted, st.accepted + st.rejected);
  EXPECT_EQ(st.done + st.failed + st.timeout + st.cancelled, st.accepted);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_EQ(st.running, 0);

  // Scrape #2: the exposition stayed parseable under load and every counter
  // only moved forward between the two scrapes.
  const std::string scrape_end = mgr.prometheus();
  for (const char* series :
       {"dtp_serve_submitted_total", "dtp_serve_accepted_total",
        "dtp_serve_done_total", "dtp_serve_failed_total",
        "dtp_serve_timeout_total", "dtp_serve_cancelled_total",
        "dtp_serve_preemptions_total"}) {
    const double before = prom_sample(scrape_mid, series);
    const double after = prom_sample(scrape_end, series);
    EXPECT_GE(after, before) << series << " went backwards";
  }
  // The gauges are fresh after the last transition, not stuck at submit time.
  EXPECT_EQ(prom_sample(scrape_end, "dtp_serve_queue_depth"), 0.0);
  EXPECT_EQ(prom_sample(scrape_end, "dtp_serve_running"), 0.0);

  // The event ring saw every accepted job through to a terminal event.
  {
    uint64_t next = 0, gap = 0;
    const auto evs = mgr.events_since(0, &next, &gap);
    EXPECT_EQ(gap, 0u);  // default capacity comfortably holds the soak
    std::set<uint64_t> terminal_jobs;
    for (const ServeEvent& e : evs)
      if (e.kind == "terminal") terminal_jobs.insert(e.job);
    for (uint64_t id : ids)
      EXPECT_EQ(terminal_jobs.count(id), 1u)
          << "job " << id << " has no terminal event";
  }

  // The merged trace carries spans from many distinct job tracks.
  {
    const std::string trace_path = art + "/trace.json";
    ASSERT_TRUE(mgr.write_trace(trace_path));
    std::ifstream in(trace_path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const JsonValue doc = JsonParser::parse(ss.str());
    std::set<double> job_tracks;
    for (const JsonValue& e : doc.at("traceEvents").array)
      if (e.str_or("ph", "") == "X" && e.num_or("tid", 0) > 0)
        job_tracks.insert(e.num("tid"));
    EXPECT_GE(job_tracks.size(), 2u);
    EXPECT_GE(mgr.spans().num_tracks(), 2u);
  }

  // Per-job artifact streams exist and end with a run_end record.
  for (uint64_t id : {ids[0], ids[10]}) {
    std::ifstream in(art + "/job-" + std::to_string(id) + ".jsonl");
    ASSERT_TRUE(in.good());
    std::string line, last_type;
    while (std::getline(in, line)) {
      const JsonValue v = JsonParser::parse(line);
      last_type = v.str_or("type", "");
    }
    EXPECT_EQ(last_type, "run_end");
  }
}

TEST(Soak, PreemptionCheckpointsAndRequeuesTheVictim) {
  ManagerOptions opts = fast_opts();
  opts.workers = 1;  // force contention
  JobManager mgr(opts);

  const SubmitResult low = mgr.submit(demo_spec(400, 100000, "wl", "slow"));
  ASSERT_TRUE(low.accepted);
  EXPECT_EQ(wait_state(mgr, low.id, JobState::Running), JobState::Running);

  JobSpec urgent = demo_spec(150, 30, "wl", "fast");
  urgent.priority = 10;
  const SubmitResult high = mgr.submit(urgent);
  ASSERT_TRUE(high.accepted);

  EXPECT_EQ(wait_terminal(mgr, high.id), JobState::Done);
  // The victim went back to the queue with a checkpoint and finishes later.
  mgr.cancel(low.id);  // don't sit through 100k iterations
  const JobState final_low = wait_terminal(mgr, low.id);
  EXPECT_TRUE(final_low == JobState::Cancelled || final_low == JobState::Done);
  const auto rec = mgr.status(low.id);
  EXPECT_GE(rec->preemptions, 1);
  EXPECT_GE(mgr.stats().preemptions, 1u);
}

TEST(Soak, SaturationShedsWithRejectedOverload) {
  ManagerOptions opts = fast_opts();
  opts.workers = 1;
  opts.queue_capacity = 2;
  JobManager mgr(opts);

  // One running + two queued fills the service.
  const SubmitResult a = mgr.submit(demo_spec(400, 100000, "wl", "a"));
  ASSERT_TRUE(a.accepted);
  EXPECT_EQ(wait_state(mgr, a.id, JobState::Running), JobState::Running);
  const SubmitResult b = mgr.submit(demo_spec(150, 20, "wl", "b"));
  const SubmitResult c = mgr.submit(demo_spec(150, 20, "wl", "c"));
  ASSERT_TRUE(b.accepted);
  ASSERT_TRUE(c.accepted);

  ManagerOptions no_preempt = opts;
  const SubmitResult shed = mgr.submit(demo_spec(150, 20, "wl", "d"));
  EXPECT_FALSE(shed.accepted);
  EXPECT_EQ(shed.reason, "rejected:overload");
  const auto rec = mgr.status(shed.id);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::Rejected);

  // Invalid specs are shed with a diagnostic, not enqueued.
  const SubmitResult invalid = mgr.submit(JobSpec{});
  EXPECT_FALSE(invalid.accepted);
  EXPECT_NE(invalid.reason.find("rejected:invalid"), std::string::npos);

  mgr.cancel(a.id);
  EXPECT_TRUE(mgr.wait_idle(60.0));
  EXPECT_EQ(mgr.stats().rejected, 2u);
}

TEST(Soak, DrainCheckpointsJournalsAndRestartRecovers) {
  const std::string art = fresh_dir("dtp_serve_drain");
  std::vector<uint64_t> unfinished;
  {
    ManagerOptions opts = fast_opts(art);
    opts.workers = 2;
    JobManager mgr(opts);
    // Two long runners occupy both workers; two more sit queued.
    const SubmitResult r1 = mgr.submit(demo_spec(300, 100000, "wl", "a"));
    const SubmitResult r2 = mgr.submit(demo_spec(300, 100000, "wl", "b"));
    ASSERT_TRUE(r1.accepted);
    ASSERT_TRUE(r2.accepted);
    EXPECT_EQ(wait_state(mgr, r1.id, JobState::Running), JobState::Running);
    EXPECT_EQ(wait_state(mgr, r2.id, JobState::Running), JobState::Running);
    // Let both runs make real progress so the drain checkpoints carry a
    // positive iteration (status() reports the live placer iteration).
    for (uint64_t id : {r1.id, r2.id}) {
      const auto t0 = std::chrono::steady_clock::now();
      while (mgr.status(id)->outcome.iterations < 2 &&
             std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                     .count() < 30)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const SubmitResult q1 = mgr.submit(demo_spec(150, 25, "wl", "c"));
    const SubmitResult q2 = mgr.submit(demo_spec(150, 25, "wl", "d"));
    ASSERT_TRUE(q1.accepted);
    ASSERT_TRUE(q2.accepted);
    unfinished = {r1.id, r2.id, q1.id, q2.id};

    mgr.drain();
    EXPECT_TRUE(mgr.draining());
    // Drain parked the running jobs with checkpoints; nothing is terminal.
    for (uint64_t id : {r1.id, r2.id})
      EXPECT_EQ(mgr.status(id)->state, JobState::Paused);
    // A post-drain submit is refused, not silently dropped.
    const SubmitResult late = mgr.submit(demo_spec(150, 20, "wl", "e"));
    EXPECT_FALSE(late.accepted);
    EXPECT_EQ(late.reason, "rejected:draining");
  }

  // The journal holds the accepted jobs and at least one mid-run checkpoint.
  {
    std::ifstream in(art + "/journal.jsonl");
    ASSERT_TRUE(in.good());
    std::string line;
    int accepts = 0, ckpts = 0;
    while (std::getline(in, line)) {
      const JsonValue v = JsonParser::parse(line);
      const std::string ev = v.str_or("ev", "");
      if (ev == "accept") ++accepts;
      if (ev == "ckpt") {
        ++ckpts;
        EXPECT_GT(v.num("iter"), 0.0);
      }
    }
    EXPECT_EQ(accepts, 4);
    EXPECT_GE(ckpts, 2);
  }

  // Restart over the same artifact directory: every unfinished job is
  // re-admitted (resuming from its checkpoint where one exists) and runs to
  // a terminal state.  Cap the long runs so the test finishes quickly.
  {
    ManagerOptions opts = fast_opts(art);
    JobManager mgr(opts);
    EXPECT_EQ(mgr.stats().recovered, 4u);
    for (uint64_t id : unfinished) {
      const auto rec = mgr.status(id);
      ASSERT_TRUE(rec.has_value());
      EXPECT_TRUE(rec->recovered);
      if (rec->spec.max_iters > 1000) mgr.cancel(id);
    }
    ASSERT_TRUE(mgr.wait_idle(120.0)) << mgr.stats_json();
    for (uint64_t id : unfinished)
      EXPECT_TRUE(job_state_is_terminal(mgr.status(id)->state))
          << "job " << id << ": " << job_state_name(mgr.status(id)->state);
  }
}

// -------------------------------------------------------------- telemetry --

TEST(Telemetry, EventRingSinceCursorSemantics) {
  EventRing ring(8);
  uint64_t next = 99, gap = 99;
  EXPECT_TRUE(ring.since(0, &next, &gap).empty());
  EXPECT_EQ(next, 0u);
  EXPECT_EQ(gap, 0u);

  ring.push("accept", 1, "queued", "ci wl prio 0");
  ring.push("state", 1, "running");
  auto evs = ring.since(0, &next, &gap);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].seq, 1u);
  EXPECT_EQ(evs[0].kind, "accept");
  EXPECT_EQ(evs[0].job, 1u);
  EXPECT_GT(evs[0].ts_ms, 0);
  EXPECT_EQ(evs[1].seq, 2u);
  EXPECT_EQ(next, 2u);
  EXPECT_EQ(gap, 0u);

  // Tailing from the returned cursor is incremental: nothing new -> empty,
  // cursor unchanged; one more push -> exactly that event.
  EXPECT_TRUE(ring.since(next, &next, &gap).empty());
  EXPECT_EQ(next, 2u);
  ring.push("terminal", 1, "done");
  evs = ring.since(next, &next, &gap);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, "terminal");
  EXPECT_EQ(next, 3u);
}

TEST(Telemetry, EventRingOverflowReportsExplicitGap) {
  EventRing ring(4);
  for (uint64_t i = 1; i <= 10; ++i) ring.push("state", i);
  uint64_t next = 0, gap = 0;
  auto evs = ring.since(0, &next, &gap);
  // Only the newest `capacity` events survive; the 6 lost ones are counted,
  // not silently skipped.
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(gap, 6u);
  EXPECT_EQ(evs.front().seq, 7u);
  EXPECT_EQ(evs.back().seq, 10u);
  EXPECT_EQ(next, 10u);
  // A cursor inside the retained window reads gap-free.
  evs = ring.since(8, &next, &gap);
  EXPECT_EQ(evs.size(), 2u);
  EXPECT_EQ(gap, 0u);
}

TEST(Telemetry, SpanLogMergesTracksIntoOneChromeTrace) {
  SpanLog log(8);
  log.span("run", 1, 0.0, 0.5, "wl");
  log.span("run", 2, 0.1, 0.2);
  log.instant("preempt", 1, 0.3, "by job 2");
  EXPECT_EQ(log.num_tracks(), 2u);

  const JsonValue doc = JsonParser::parse(log.to_chrome_json());
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  size_t meta = 0, complete = 0, instants = 0;
  std::set<double> tids;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    const std::string ph = e.str("ph");
    if (ph == "M") {
      ++meta;
    } else if (ph == "X") {
      ++complete;
      tids.insert(e.num("tid"));
      EXPECT_GE(e.num("dur"), 0.0);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.str("s"), "t");
    }
    EXPECT_EQ(e.num("pid"), 1.0);  // one daemon process
  }
  EXPECT_EQ(meta, 3u);  // process_name + thread_name per track
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(tids.size(), 2u);

  // The cap drops the newest span (keeps the session's beginning) and counts.
  SpanLog tiny(1);
  tiny.span("a", 1, 0.0, 1.0);
  tiny.span("b", 1, 1.0, 2.0);
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_EQ(tiny.dropped(), 1u);
  EXPECT_EQ(tiny.spans()[0].name, "a");
}

TEST(Telemetry, PrometheusExpositionIsWellFormed) {
  JobManager mgr(fast_opts());
  const SubmitResult r = mgr.submit(demo_spec(150, 30));
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(wait_terminal(mgr, r.id), JobState::Done);
  const std::string text = mgr.prometheus();

  // Structural validation: every line is a HELP/TYPE comment or a
  // "name[{labels}] value" sample, one HELP + one TYPE per family, and the
  // family's TYPE precedes its first sample.
  std::map<std::string, int> helps, types;
  std::set<std::string> sampled;
  for (const std::string& line : prom_split(text)) {
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::string family = rest.substr(0, rest.find(' '));
      ASSERT_FALSE(family.empty()) << line;
      if (line[2] == 'H') {
        EXPECT_EQ(++helps[family], 1) << "duplicate HELP: " << family;
      } else {
        EXPECT_EQ(++types[family], 1) << "duplicate TYPE: " << family;
        EXPECT_EQ(sampled.count(family), 0u)
            << "TYPE after samples: " << family;
      }
      continue;
    }
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::string name = line.substr(0, sp);
    const size_t brace = name.find('{');
    if (brace != std::string::npos) name = name.substr(0, brace);
    EXPECT_EQ(name.find_first_not_of(
                  "abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"),
              std::string::npos)
        << "bad metric name: " << name;
    sampled.insert(name);
  }

  // The serve series the dashboards scrape are all present.
  EXPECT_GE(prom_sample(text, "dtp_serve_submitted_total"), 1.0);
  EXPECT_GE(prom_sample(text, "dtp_serve_done_total"), 1.0);
  EXPECT_EQ(prom_sample(text, "dtp_serve_queue_depth"), 0.0);
  EXPECT_EQ(prom_sample(text, "dtp_serve_running"), 0.0);
  EXPECT_EQ(prom_sample(text, "dtp_serve_up"), 1.0);
  // This manager's live job table: exactly the one done job.
  EXPECT_EQ(prom_sample(text, "dtp_serve_job_state{state=\"done\"}"), 1.0);
  EXPECT_EQ(prom_sample(text, "dtp_serve_job_state{state=\"queued\"}"), 0.0);

  // Histogram families close with le="+Inf" equal to _count, and bucket
  // counts are cumulative (non-decreasing in emission order).
  for (const char* fam : {"dtp_serve_wait_ms", "dtp_serve_service_ms"}) {
    const std::string prefix = std::string(fam) + "_bucket{";
    double prev = -1.0, last = -1.0;
    for (const std::string& line : prom_split(text)) {
      if (line.rfind(prefix, 0) != 0) continue;
      const double v = std::atof(line.substr(line.rfind(' ') + 1).c_str());
      EXPECT_GE(v, prev) << line;
      prev = last = v;
    }
    ASSERT_GE(last, 0.0) << fam << " has no buckets";
    EXPECT_EQ(last, prom_sample(text, std::string(fam) + "_count"));
  }
}

TEST(Telemetry, ManagerEventsAndJournalShareTheTimeline) {
  const std::string art = fresh_dir("dtp_serve_timeline");
  JobManager mgr(fast_opts(art));
  const SubmitResult r = mgr.submit(demo_spec(150, 25));
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(wait_terminal(mgr, r.id), JobState::Done);

  // The ring tells the job's whole story: accept -> running -> terminal.
  uint64_t next = 0, gap = 0;
  const auto evs = mgr.events_since(0, &next, &gap);
  EXPECT_EQ(gap, 0u);
  std::vector<std::string> kinds;
  for (const ServeEvent& e : evs)
    if (e.job == r.id) kinds.push_back(e.kind);
  ASSERT_GE(kinds.size(), 3u);
  EXPECT_EQ(kinds.front(), "accept");
  EXPECT_EQ(kinds.back(), "terminal");
  int64_t prev_ts = 0;
  for (const ServeEvent& e : evs) {
    EXPECT_GE(e.ts_ms, prev_ts);  // wall clock is monotone within the ring
    prev_ts = e.ts_ms;
  }

  // Every journal record is stamped with ts_ms and a strictly increasing
  // process-wide seq, so offline tools can merge streams on one timeline.
  std::ifstream in(art + "/journal.jsonl");
  ASSERT_TRUE(in.good());
  std::string line;
  double prev_seq = 0.0;
  size_t records = 0;
  bool saw_terminal = false;
  while (std::getline(in, line)) {
    const JsonValue v = JsonParser::parse(line);
    ++records;
    EXPECT_GT(v.num_or("ts_ms", 0), 0.0) << line;
    EXPECT_GT(v.num_or("seq", 0), prev_seq) << line;
    prev_seq = v.num_or("seq", 0);
    if (v.str_or("ev", "") == "terminal") {
      saw_terminal = true;
      // The extended terminal record carries the session-report fields.
      EXPECT_TRUE(v.has("wait_sec")) << line;
      EXPECT_TRUE(v.has("run_sec")) << line;
      EXPECT_TRUE(v.has("retries")) << line;
    }
  }
  EXPECT_GE(records, 2u);
  EXPECT_TRUE(saw_terminal);
}

TEST(Telemetry, ProtocolMetricsAndEventsVerbs) {
  JobManager mgr(fast_opts());
  const SubmitResult r = mgr.submit(demo_spec(150, 25));
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(wait_terminal(mgr, r.id), JobState::Done);

  bool drain = false;
  const JsonValue m =
      JsonParser::parse(handle_request(mgr, R"({"cmd":"metrics"})", &drain));
  ASSERT_TRUE(m.at("ok").boolean);
  EXPECT_EQ(m.str("format"), "prometheus");
  EXPECT_NE(m.str("text").find("dtp_serve_submitted_total"),
            std::string::npos);

  const JsonValue e = JsonParser::parse(
      handle_request(mgr, R"({"cmd":"events","since":0})", &drain));
  ASSERT_TRUE(e.at("ok").boolean);
  ASSERT_TRUE(e.at("events").is_array());
  ASSERT_GE(e.at("events").array.size(), 3u);
  EXPECT_EQ(e.num("gap"), 0.0);
  const double cursor = e.num("next_since");
  EXPECT_GT(cursor, 0.0);
  for (const JsonValue& ev : e.at("events").array) {
    EXPECT_GT(ev.num("seq"), 0.0);
    EXPECT_GT(ev.num("ts_ms"), 0.0);
    EXPECT_FALSE(ev.str("kind").empty());
  }

  // Cursor resumes cleanly; junk cursors answer with a diagnostic.
  const JsonValue e2 = JsonParser::parse(handle_request(
      mgr,
      R"({"cmd":"events","since":)" + std::to_string(int64_t(cursor)) + "}",
      &drain));
  ASSERT_TRUE(e2.at("ok").boolean);
  EXPECT_TRUE(e2.at("events").array.empty());
  const JsonValue bad = JsonParser::parse(
      handle_request(mgr, R"({"cmd":"events","since":"x"})", &drain));
  EXPECT_FALSE(bad.at("ok").boolean);
}

TEST(Telemetry, GaugesTrackEveryTransitionNotJustSubmit) {
  ManagerOptions opts = fast_opts();
  opts.workers = 1;
  JobManager mgr(opts);
  auto& reg = dtp::obs::MetricsRegistry::instance();

  const SubmitResult runs = mgr.submit(demo_spec(300, 100000, "wl", "a"));
  ASSERT_TRUE(runs.accepted);
  EXPECT_EQ(wait_state(mgr, runs.id, JobState::Running), JobState::Running);
  const SubmitResult waits = mgr.submit(demo_spec(150, 20, "wl", "b"));
  ASSERT_TRUE(waits.accepted);
  EXPECT_EQ(reg.gauge("serve.queue_depth").value(), 1.0);
  EXPECT_EQ(reg.gauge("serve.running").value(), 1.0);

  // Pausing the queued job must refresh queue_depth without a submit.
  ASSERT_TRUE(mgr.pause(waits.id));
  EXPECT_EQ(reg.gauge("serve.queue_depth").value(), 0.0);
  EXPECT_EQ(reg.gauge("serve.paused").value(), 1.0);
  ASSERT_TRUE(mgr.resume(waits.id));
  EXPECT_EQ(reg.gauge("serve.queue_depth").value(), 1.0);
  EXPECT_EQ(reg.gauge("serve.paused").value(), 0.0);

  mgr.cancel(runs.id);
  mgr.cancel(waits.id);
  ASSERT_TRUE(mgr.wait_idle(60.0));
  EXPECT_EQ(reg.gauge("serve.queue_depth").value(), 0.0);
  EXPECT_EQ(reg.gauge("serve.running").value(), 0.0);
}
