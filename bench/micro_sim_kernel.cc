// Microbenchmarks for the discrete-event simulation kernel.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "mpeg/draw_kernel.h"
#include "mpeg/frame_model.h"
#include "mpeg/frame_window.h"
#include "mpeg/video.h"
#include "sim/environment.h"
#include "sim/process.h"
#include "sim/random.h"

namespace {

using spiffi::sim::Environment;
using spiffi::sim::EventHandler;
using spiffi::sim::Process;

// Raw calendar throughput: schedule + fire.
class NullHandler final : public EventHandler {
 public:
  void OnEvent(std::uint64_t) override {}
};

void BM_CalendarScheduleFire(benchmark::State& state) {
  spiffi::sim::Calendar calendar;
  NullHandler handler;
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      calendar.Schedule(static_cast<double>(i % 97), &handler, i);
    }
    while (!calendar.empty()) calendar.FireNext();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_CalendarScheduleFire)->Arg(64)->Arg(1024)->Arg(16384);

// Cancel-heavy load: half of every batch is cancelled before it fires,
// the way wait-list timeout timers behave. Exercises the slot table's
// generation check and the lazy drop of cancelled heap entries.
void BM_CalendarScheduleCancelFire(benchmark::State& state) {
  spiffi::sim::Calendar calendar;
  NullHandler handler;
  const int batch = static_cast<int>(state.range(0));
  std::vector<spiffi::sim::EventId> ids(static_cast<std::size_t>(batch));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      ids[i] = calendar.Schedule(static_cast<double>(i % 97), &handler, i);
    }
    for (int i = 0; i < batch; i += 2) calendar.Cancel(ids[i]);
    while (!calendar.empty()) calendar.FireNext();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_CalendarScheduleCancelFire)->Arg(1024)->Arg(16384);

// Display-tick load: `tickers` periodic tickers re-arm one frame (1/30 s)
// ahead of their last tick, the way terminals drive their displays, over
// a background of one random event per four tickers (Exp(50 ms) apart,
// always through Schedule). With `lane` the ticks go through
// ScheduleTick; without it, through Schedule — the heap-only "before".
class TickLoad final : public EventHandler {
 public:
  TickLoad(spiffi::sim::Calendar* calendar, int tickers, bool lane)
      : calendar_(calendar),
        lane_(lane),
        tickers_(static_cast<std::size_t>(tickers)),
        next_(tickers_ + tickers_ / 4),
        rng_(7) {
    for (std::size_t i = 0; i < next_.size(); ++i) {
      next_[i] = i < tickers_ ? static_cast<double>(i) / (30.0 * tickers)
                              : rng_.Exponential(0.05);
      Arm(i);
    }
  }

  void OnEvent(std::uint64_t token) override {
    next_[token] += token < tickers_ ? 1.0 / 30.0 : rng_.Exponential(0.05);
    Arm(token);
  }

 private:
  void Arm(std::uint64_t token) {
    if (lane_ && token < tickers_) {
      calendar_->ScheduleTick(next_[token], this, token);
    } else {
      calendar_->Schedule(next_[token], this, token);
    }
  }

  spiffi::sim::Calendar* calendar_;
  bool lane_;
  std::size_t tickers_;
  std::vector<double> next_;
  spiffi::sim::Rng rng_;
};

void CalendarTickLoop(benchmark::State& state, bool lane) {
  const int tickers = static_cast<int>(state.range(0));
  spiffi::sim::Calendar calendar;
  calendar.Reserve(static_cast<std::size_t>(2 * tickers));
  TickLoad load(&calendar, tickers, lane);
  constexpr int kBatch = 1024;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      benchmark::DoNotOptimize(calendar.FireNext());
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_CalendarTickLane(benchmark::State& state) {
  CalendarTickLoop(state, /*lane=*/true);
}
BENCHMARK(BM_CalendarTickLane)->Arg(64)->Arg(1024);

void BM_CalendarTickHeap(benchmark::State& state) {
  CalendarTickLoop(state, /*lane=*/false);
}
BENCHMARK(BM_CalendarTickHeap)->Arg(64)->Arg(1024);

// Coroutine hold loop: events routed through process resumption.
Process HoldLoop(Environment* env, int holds) {
  for (int i = 0; i < holds; ++i) co_await env->Hold(0.001);
}

void BM_ProcessHoldLoop(benchmark::State& state) {
  const int processes = static_cast<int>(state.range(0));
  constexpr int kHolds = 100;
  for (auto _ : state) {
    Environment env;
    for (int p = 0; p < processes; ++p) {
      env.Spawn(HoldLoop(&env, kHolds));
    }
    env.Run();
    benchmark::DoNotOptimize(env.events_fired());
  }
  state.SetItemsProcessed(state.iterations() * processes * kHolds);
}
BENCHMARK(BM_ProcessHoldLoop)->Arg(10)->Arg(100)->Arg(1000);

void BM_RngExponential(benchmark::State& state) {
  spiffi::sim::Rng rng(42);
  double sum = 0.0;
  for (auto _ : state) {
    sum += rng.Exponential(1.0);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

void BM_CounterModeFrameDraw(benchmark::State& state) {
  std::uint64_t i = 0;
  double sum = 0.0;
  for (auto _ : state) {
    sum += spiffi::sim::ExponentialAt(7, i++, 16384.0);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterModeFrameDraw);

// Frame sizes through the batch kernel, in the 960-frame runs a video
// library build uses; items/sec is draws/sec. The label names the
// kernel variant the CPU selected.
void BM_FrameDrawBatch(benchmark::State& state) {
  const spiffi::mpeg::FrameModel model{spiffi::mpeg::MpegParams()};
  constexpr std::int64_t kRun = 960;
  std::vector<std::int64_t> bytes(kRun);
  std::int64_t first = 0;
  for (auto _ : state) {
    model.DrawRun(7, first, kRun, bytes.data());
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
    first += kRun;
  }
  state.SetItemsProcessed(state.iterations() * kRun);
  state.SetLabel(spiffi::mpeg::DrawKernels().front().isa);
}
BENCHMARK(BM_FrameDrawBatch);

// A terminal's display loop over a one-hour video: each tick takes the
// next frame's size, from a FrameWindow (`window`, refilled through the
// batch kernel every kDrawBlock frames) or one scalar draw per tick
// (`scalar`, Video::FrameBytes); items/sec is ticks/sec. The window
// variant's label names the kernel variant the CPU selected.
void BM_FrameWindowTick(benchmark::State& state, bool use_window) {
  const spiffi::mpeg::FrameModel model{spiffi::mpeg::MpegParams()};
  const spiffi::mpeg::Video video(0, 7, &model, 3600.0,
                                  spiffi::mpeg::kDefaultBlockBytes);
  spiffi::mpeg::FrameWindow window;
  std::int64_t frame = 0;
  std::int64_t consumed = 0;
  for (auto _ : state) {
    if (use_window) {
      consumed += window.Peek(video, frame);
      window.Advance();
    } else {
      consumed += video.FrameBytes(frame);
    }
    benchmark::DoNotOptimize(consumed);
    if (++frame == video.frame_count()) {
      frame = 0;
      window.Invalidate();
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (use_window) state.SetLabel(spiffi::mpeg::DrawKernels().front().isa);
}
BENCHMARK_CAPTURE(BM_FrameWindowTick, window, true);
BENCHMARK_CAPTURE(BM_FrameWindowTick, scalar, false);

// A block deadline's playback time, VideoLibrary::BlockPlaybackTime,
// for uniformly random blocks of a paper-scale library (256 one-hour
// videos at 512 KiB blocks): one load from the video's block-start
// index. items/sec is queries/sec.
void BM_BlockPlaybackTime(benchmark::State& state) {
  constexpr int kVideos = 256;
  const spiffi::mpeg::VideoLibrary library(
      kVideos, 3600.0, spiffi::mpeg::MpegParams(),
      spiffi::mpeg::ZipfDistribution(kVideos, 1.0), 7,
      spiffi::mpeg::kDefaultBlockBytes);
  spiffi::sim::Rng rng(11);
  struct Query {
    int video;
    std::int64_t block;
  };
  std::vector<Query> queries(4096);
  for (Query& query : queries) {
    query.video = static_cast<int>(rng.UniformInt(kVideos));
    query.block = static_cast<std::int64_t>(rng.UniformInt(
        static_cast<std::uint64_t>(library.NumBlocks(query.video))));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Query& query = queries[i++ & (queries.size() - 1)];
    benchmark::DoNotOptimize(
        library.BlockPlaybackTime(query.video, query.block));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockPlaybackTime);

}  // namespace

BENCHMARK_MAIN();
