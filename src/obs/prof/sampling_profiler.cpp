#include "obs/prof/sampling_profiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "obs/trace.h"

namespace dtp::obs::prof {

namespace {

constexpr const char* kProfileSchema = "dtp.profile.v1";

size_t next_pow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint64_t mix_ptr(const void* p) {
  // Fibonacci hashing of the pointer bits; labels are string literals, so
  // identity hashing on the pointer is exact.
  return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(p)) *
         0x9E3779B97F4A7C15ull;
}

uint64_t hash_frames(const char* const* frames, uint32_t depth) {
  uint64_t h = 0xcbf29ce484222325ull ^ depth;  // FNV-1a offset basis
  for (uint32_t i = 0; i < depth; ++i) {
    h ^= mix_ptr(frames[i]);
    h *= 0x100000001b3ull;
  }
  return h == 0 ? 1 : h;  // 0 marks an empty slot
}

}  // namespace

struct SamplingProfiler::Impl {
  Options opts;

  // ---- accumulators, guarded by mu (sampler thread vs readers) ----------
  mutable std::mutex mu;

  struct StackEntry {
    uint64_t hash = 0;  // 0: slot empty
    uint32_t depth = 0;
    const char* frames[Tracer::kMaxLiveDepth];
    uint64_t count = 0;
  };
  std::vector<StackEntry> stacks;  // open-addressed, power-of-two capacity
  size_t stack_mask = 0;
  size_t used_stacks = 0;
  uint64_t dropped_stack_samples = 0;  // samples lost to a full stack table

  struct LabelEntry {
    const char* label = nullptr;  // nullptr: slot empty
    uint64_t self = 0;
    uint64_t total = 0;
  };
  std::vector<LabelEntry> labels;  // open-addressed by pointer identity
  size_t label_mask = 0;
  size_t used_labels = 0;
  uint64_t dropped_label_samples = 0;

  uint64_t ticks = 0;
  uint64_t samples = 0;
  uint64_t torn = 0;

  // Rolling-window checkpoints: index-aligned copies of the label arrays.
  struct Checkpoint {
    bool valid = false;
    double t_sec = 0.0;
    uint64_t ticks = 0;
    uint64_t samples = 0;
    uint64_t torn = 0;
    std::vector<uint64_t> self, total;
  };
  std::vector<Checkpoint> checkpoints;  // ring, oldest overwritten
  size_t checkpoint_head = 0;
  double last_checkpoint_t = 0.0;
  double last_tick_t = 0.0;

  // ---- sampler scratch (preallocated; tick() must not allocate) ---------
  std::vector<Tracer::LiveSample> scratch;
  std::vector<const char*> uniq;

  // Tracer drop counters at start(), so the summary reports this run's.
  size_t truncated_base = 0;
  size_t unregistered_base = 0;

  // ---- lifecycle ---------------------------------------------------------
  std::thread thread;
  std::mutex cv_mu;
  std::condition_variable cv;
  bool stop_requested = false;  // guarded by cv_mu
  std::atomic<bool> running{false};
  bool ever_started = false;
  std::chrono::steady_clock::time_point start_time;
  double stopped_duration = 0.0;

  explicit Impl(const Options& o) : opts(o) {
    opts.hz = std::clamp(opts.hz, 1.0, 100000.0);
    opts.max_stacks = std::max<size_t>(16, opts.max_stacks);
    opts.max_labels = std::max<size_t>(16, opts.max_labels);
    stacks.resize(next_pow2(opts.max_stacks * 2));
    stack_mask = stacks.size() - 1;
    labels.resize(next_pow2(opts.max_labels * 2));
    label_mask = labels.size() - 1;
    scratch.resize(Tracer::kMaxLiveThreads);
    uniq.reserve(Tracer::kMaxLiveDepth);
    checkpoints.resize(std::max<size_t>(1, opts.max_checkpoints));
    for (Checkpoint& c : checkpoints) {
      c.self.resize(labels.size());
      c.total.resize(labels.size());
    }
  }

  double elapsed_sec() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_time)
        .count();
  }

  double duration_sec() const {
    if (running.load(std::memory_order_relaxed)) return elapsed_sec();
    if (ever_started) return stopped_duration;
    return static_cast<double>(ticks) / opts.hz;  // manually driven (tests)
  }

  void reset_accumulators() {
    for (StackEntry& e : stacks) e = StackEntry{};
    for (LabelEntry& e : labels) e = LabelEntry{};
    used_stacks = 0;
    used_labels = 0;
    dropped_stack_samples = 0;
    dropped_label_samples = 0;
    ticks = 0;
    samples = 0;
    torn = 0;
    for (Checkpoint& c : checkpoints) c.valid = false;
    checkpoint_head = 0;
    last_checkpoint_t = 0.0;
    last_tick_t = 0.0;
  }

  // Requires mu.  Returns nullptr when the table is full and the label new.
  LabelEntry* label_entry(const char* label) {
    size_t slot = static_cast<size_t>(mix_ptr(label)) & label_mask;
    for (size_t probe = 0; probe <= label_mask; ++probe) {
      LabelEntry& e = labels[slot];
      if (e.label == label) return &e;
      if (e.label == nullptr) {
        if (used_labels >= opts.max_labels) return nullptr;
        e.label = label;
        ++used_labels;
        return &e;
      }
      slot = (slot + 1) & label_mask;
    }
    return nullptr;
  }

  // Requires mu.
  void accumulate_stack(const Tracer::LiveSample& smp) {
    const uint64_t h = hash_frames(smp.frames, smp.depth);
    size_t slot = static_cast<size_t>(h) & stack_mask;
    for (size_t probe = 0; probe <= stack_mask; ++probe) {
      StackEntry& e = stacks[slot];
      if (e.hash == h && e.depth == smp.depth &&
          std::memcmp(e.frames, smp.frames,
                      smp.depth * sizeof(const char*)) == 0) {
        ++e.count;
        return;
      }
      if (e.hash == 0) {
        if (used_stacks >= opts.max_stacks) break;
        e.hash = h;
        e.depth = smp.depth;
        std::memcpy(e.frames, smp.frames, smp.depth * sizeof(const char*));
        e.count = 1;
        ++used_stacks;
        return;
      }
      slot = (slot + 1) & stack_mask;
    }
    ++dropped_stack_samples;
  }

  // Requires mu.
  void maybe_checkpoint(double t_sec) {
    bool any_valid = false;
    for (const Checkpoint& c : checkpoints)
      if (c.valid) {
        any_valid = true;
        break;
      }
    if (any_valid && t_sec - last_checkpoint_t < opts.checkpoint_period_sec)
      return;
    Checkpoint& c = checkpoints[checkpoint_head];
    checkpoint_head = (checkpoint_head + 1) % checkpoints.size();
    c.valid = true;
    c.t_sec = t_sec;
    c.ticks = ticks;
    c.samples = samples;
    c.torn = torn;
    for (size_t i = 0; i < labels.size(); ++i) {
      c.self[i] = labels[i].self;
      c.total[i] = labels[i].total;
    }
    last_checkpoint_t = t_sec;
  }

  // One sampling tick at logical/wall time t_sec.  Allocation-free.
  void tick(double t_sec) {
    Tracer& tracer = Tracer::instance();
    size_t torn_now = 0;
    const size_t n =
        tracer.sample_live(scratch.data(), scratch.size(), &torn_now);
    std::lock_guard<std::mutex> lock(mu);
    ++ticks;
    torn += torn_now;
    last_tick_t = t_sec;
    for (size_t i = 0; i < n; ++i) {
      const Tracer::LiveSample& smp = scratch[i];
      ++samples;
      accumulate_stack(smp);
      const char* leaf = smp.frames[smp.depth - 1];
      // Per-label tallies: self for the leaf, total once per distinct label
      // on the stack (recursion must not double-count inclusive weight).
      uniq.clear();
      for (uint32_t f = 0; f < smp.depth; ++f) {
        const char* name = smp.frames[f];
        bool seen = false;
        for (const char* u : uniq)
          if (u == name) {
            seen = true;
            break;
          }
        if (!seen) uniq.push_back(name);
      }
      bool label_lost = false;
      for (const char* u : uniq) {
        LabelEntry* e = label_entry(u);
        if (e == nullptr) {
          label_lost = true;
          continue;
        }
        ++e->total;
        if (u == leaf) ++e->self;
      }
      // Recursion edge: when the leaf label also appears higher in the
      // stack, the loop above already credited its self count once.
      if (label_lost) ++dropped_label_samples;
    }
    maybe_checkpoint(t_sec);
  }

  void run() {
    const auto period =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(1.0 / opts.hz));
    auto next = start_time + period;
    std::unique_lock<std::mutex> lk(cv_mu);
    while (!stop_requested) {
      if (cv.wait_until(lk, next, [&] { return stop_requested; })) break;
      lk.unlock();
      tick(elapsed_sec());
      lk.lock();
      next += period;
      const auto now = std::chrono::steady_clock::now();
      if (next < now) next = now + period;  // fell behind: skip, don't burst
    }
  }

  // Requires mu.  Newest checkpoint at least window_sec old, or nullptr for
  // "whole run".
  const Checkpoint* window_baseline(double window_sec) const {
    if (window_sec <= 0.0) return nullptr;
    const double cutoff = last_tick_t - window_sec;
    const Checkpoint* best = nullptr;
    for (const Checkpoint& c : checkpoints) {
      if (!c.valid || c.t_sec > cutoff) continue;
      if (best == nullptr || c.t_sec > best->t_sec) best = &c;
    }
    return best;
  }
};

SamplingProfiler::SamplingProfiler() : SamplingProfiler(Options{}) {}

SamplingProfiler::SamplingProfiler(const Options& opts)
    : impl_(std::make_unique<Impl>(opts)) {}

SamplingProfiler::~SamplingProfiler() { stop(); }

void SamplingProfiler::start() {
  Impl& im = *impl_;
  if (im.running.load(std::memory_order_relaxed)) return;
  Tracer& tracer = Tracer::instance();
  tracer.enable_live();
  im.truncated_base = tracer.live_truncated();
  im.unregistered_base = tracer.live_unregistered();
  {
    std::lock_guard<std::mutex> lock(im.mu);
    im.reset_accumulators();
  }
  {
    std::lock_guard<std::mutex> lk(im.cv_mu);
    im.stop_requested = false;
  }
  im.start_time = std::chrono::steady_clock::now();
  im.ever_started = true;
  im.running.store(true, std::memory_order_relaxed);
  im.thread = std::thread([this] { impl_->run(); });
}

void SamplingProfiler::stop() {
  Impl& im = *impl_;
  if (!im.running.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lk(im.cv_mu);
    im.stop_requested = true;
  }
  im.cv.notify_all();
  if (im.thread.joinable()) im.thread.join();
  im.stopped_duration = im.elapsed_sec();
  im.running.store(false, std::memory_order_relaxed);
  Tracer::instance().disable_live();
}

bool SamplingProfiler::running() const {
  return impl_->running.load(std::memory_order_relaxed);
}

void SamplingProfiler::sample_now() {
  Impl& im = *impl_;
  double t;
  if (im.running.load(std::memory_order_relaxed)) {
    t = im.elapsed_sec();
  } else {
    std::lock_guard<std::mutex> lock(im.mu);
    t = static_cast<double>(im.ticks + 1) / im.opts.hz;  // fake clock
  }
  im.tick(t);
}

uint64_t SamplingProfiler::ticks() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->ticks;
}

uint64_t SamplingProfiler::samples() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->samples;
}

std::string SamplingProfiler::collapsed() const {
  Impl& im = *impl_;
  std::vector<std::string> lines;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    lines.reserve(im.used_stacks);
    for (const Impl::StackEntry& e : im.stacks) {
      if (e.hash == 0 || e.count == 0) continue;
      std::string line;
      for (uint32_t f = 0; f < e.depth; ++f) {
        if (f > 0) line += ';';
        line += e.frames[f];
      }
      line += ' ';
      line += std::to_string(e.count);
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::string SamplingProfiler::summary_json(double window_sec) const {
  Impl& im = *impl_;
  struct Merged {
    uint64_t self = 0;
    uint64_t total = 0;
  };
  // Merge by string content: the same label text may be distinct literals in
  // different translation units.
  std::map<std::string_view, Merged> merged;
  uint64_t w_ticks = 0, w_samples = 0, w_torn = 0;
  double duration = 0.0, window_span = 0.0;
  uint64_t dropped_stacks = 0, dropped_labels = 0;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    const Impl::Checkpoint* base = im.window_baseline(window_sec);
    w_ticks = im.ticks - (base ? base->ticks : 0);
    w_samples = im.samples - (base ? base->samples : 0);
    w_torn = im.torn - (base ? base->torn : 0);
    duration = im.duration_sec();
    window_span = base ? im.last_tick_t - base->t_sec
                       : (window_sec > 0.0 ? std::min(window_sec, duration)
                                           : duration);
    dropped_stacks = im.dropped_stack_samples;
    dropped_labels = im.dropped_label_samples;
    for (size_t i = 0; i < im.labels.size(); ++i) {
      const Impl::LabelEntry& e = im.labels[i];
      if (e.label == nullptr) continue;
      Merged m;
      m.self = e.self - (base ? base->self[i] : 0);
      m.total = e.total - (base ? base->total[i] : 0);
      if (m.total == 0) continue;
      Merged& dst = merged[std::string_view(e.label)];
      dst.self += m.self;
      dst.total += m.total;
    }
  }
  std::vector<std::pair<std::string_view, Merged>> rows(merged.begin(),
                                                        merged.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.self != b.second.self) return a.second.self > b.second.self;
    return a.first < b.first;
  });

  const Tracer& tracer = Tracer::instance();
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kProfileSchema);
  w.key("hz").value(im.opts.hz);
  w.key("duration_sec").value(duration);
  w.key("window_sec").value(window_span);
  w.key("ticks").value(w_ticks);
  w.key("samples").value(w_samples);
  w.key("torn").value(w_torn);
  w.key("truncated")
      .value(static_cast<uint64_t>(tracer.live_truncated() -
                                   im.truncated_base));
  w.key("unregistered_threads")
      .value(static_cast<uint64_t>(tracer.live_unregistered() -
                                   im.unregistered_base));
  w.key("dropped_stack_samples").value(dropped_stacks);
  w.key("dropped_label_samples").value(dropped_labels);
  const double denom = w_samples > 0 ? static_cast<double>(w_samples) : 1.0;
  w.key("labels").begin_array();
  for (const auto& [label, m] : rows) {
    w.begin_object();
    w.key("label").value(std::string(label));
    w.key("self").value(m.self);
    w.key("total").value(m.total);
    w.key("self_pct").value(100.0 * static_cast<double>(m.self) / denom);
    w.key("total_pct").value(100.0 * static_cast<double>(m.total) / denom);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool SamplingProfiler::write_collapsed(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << collapsed();
  return static_cast<bool>(f);
}

bool SamplingProfiler::write_summary(const std::string& path,
                                     double window_sec) const {
  std::ofstream f(path);
  if (!f) return false;
  f << summary_json(window_sec) << "\n";
  return static_cast<bool>(f);
}

}  // namespace dtp::obs::prof
