/**
 * @file
 * Utility tests: RNG determinism and distributions, image I/O round trips,
 * CSV formatting, CLI parsing, thread pool, timers.
 */
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "utils/cli.hpp"
#include "utils/csv.hpp"
#include "utils/image_io.hpp"
#include "utils/rng.hpp"
#include "utils/sync.hpp"
#include "utils/thread_pool.hpp"
#include "utils/timer.hpp"

namespace lightridge {
namespace {

TEST(Rng, DeterministicUnderSameSeed)
{
    Rng a(99), b(99);
    for (int i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(5);
    Real first = a.uniform();
    a.uniform();
    a.reseed(5);
    EXPECT_DOUBLE_EQ(a.uniform(), first);
}

TEST(Rng, UniformRespectsBounds)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        Real v = rng.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, NormalHasApproxMoments)
{
    Rng rng(2);
    const int n = 20000;
    Real sum = 0, sq = 0;
    for (int i = 0; i < n; ++i) {
        Real v = rng.normal(1.0, 2.0);
        sum += v;
        sq += v * v;
    }
    Real mean = sum / n;
    Real var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 1.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, RandintCoversRangeInclusive)
{
    Rng rng(3);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.randint(0, 4));
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_TRUE(seen.count(0));
    EXPECT_TRUE(seen.count(4));
}

TEST(Rng, GumbelHasEulerMascheroniMean)
{
    Rng rng(4);
    const int n = 50000;
    Real sum = 0;
    for (int i = 0; i < n; ++i)
        sum += rng.gumbel();
    EXPECT_NEAR(sum / n, 0.5772, 0.05);
}

TEST(ImageIo, PgmRoundTrip)
{
    GrayImage img;
    img.rows = 4;
    img.cols = 6;
    img.pixels.resize(24);
    for (std::size_t i = 0; i < img.pixels.size(); ++i)
        img.pixels[i] = static_cast<uint8_t>(i * 10);
    const std::string path = "/tmp/lr_test.pgm";
    ASSERT_TRUE(writePgm(path, img));
    GrayImage back;
    ASSERT_TRUE(readPgm(path, &back));
    EXPECT_EQ(back.rows, 4u);
    EXPECT_EQ(back.cols, 6u);
    EXPECT_EQ(back.pixels, img.pixels);
    std::remove(path.c_str());
}

TEST(ImageIo, PpmRoundTrip)
{
    RgbImage img;
    img.rows = 2;
    img.cols = 3;
    img.pixels.resize(18);
    for (std::size_t i = 0; i < img.pixels.size(); ++i)
        img.pixels[i] = static_cast<uint8_t>(255 - i);
    const std::string path = "/tmp/lr_test.ppm";
    ASSERT_TRUE(writePpm(path, img));
    RgbImage back;
    ASSERT_TRUE(readPpm(path, &back));
    EXPECT_EQ(back.pixels, img.pixels);
    std::remove(path.c_str());
}

TEST(ImageIo, ReadMissingFileFails)
{
    GrayImage img;
    EXPECT_FALSE(readPgm("/nonexistent/file.pgm", &img));
}

TEST(ImageIo, ToGrayNormalizesRange)
{
    std::vector<double> values{-1.0, 0.0, 1.0, 3.0};
    GrayImage img = toGray(values, 2, 2);
    EXPECT_EQ(img.pixels[0], 0);
    EXPECT_EQ(img.pixels[3], 255);
    EXPECT_EQ(img.pixels[1], 63); // (0 - -1)/4 * 255 = 63.75 -> clamp/floor
}

TEST(ImageIo, ToGrayConstantMapsToZero)
{
    std::vector<double> values(9, 5.0);
    GrayImage img = toGray(values, 3, 3);
    for (uint8_t p : img.pixels)
        EXPECT_EQ(p, 0);
}

TEST(Csv, FormatsHeaderRowsAndQuoting)
{
    CsvWriter csv;
    csv.header({"a", "b"});
    csv.row({"1", "with,comma"});
    csv.rowNumeric({2.5, -3});
    std::string text = csv.str();
    EXPECT_NE(text.find("a,b\n"), std::string::npos);
    EXPECT_NE(text.find("1,\"with,comma\"\n"), std::string::npos);
    EXPECT_NE(text.find("2.5,-3\n"), std::string::npos);
}

TEST(Cli, ParsesFlagsAndDefaults)
{
    const char *argv[] = {"prog", "--size=64", "--name", "demo", "--fast"};
    CliArgs args(5, const_cast<char **>(argv));
    EXPECT_EQ(args.getInt("size", 0), 64);
    EXPECT_EQ(args.getString("name", ""), "demo");
    EXPECT_TRUE(args.getBool("fast", false));
    EXPECT_FALSE(args.getBool("slow", false));
    EXPECT_EQ(args.getInt("missing", 7), 7);
    EXPECT_TRUE(args.has("fast"));
    EXPECT_FALSE(args.has("missing"));
}

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    ThreadPool pool(4);
    std::vector<int> hits(100, 0);
    pool.parallelFor(100, [&](std::size_t i) { hits[i] += 1; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, SerialFallbackWorks)
{
    ThreadPool pool(1); // degrades to inline execution
    EXPECT_EQ(pool.workerCount(), 0u);
    std::vector<int> hits(10, 0);
    pool.parallelFor(10, [&](std::size_t i) { hits[i] += 1; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EnqueueRunsJobsWithCallerSignalling)
{
    // The shard prefetcher's primitive: fire-and-forget jobs plus a
    // caller-owned latch. Every job must run exactly once and the wait
    // must observe all of their writes.
    ThreadPool pool(4);
    const std::size_t jobs = 32;
    std::vector<int> hits(jobs, 0);
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t pending = jobs;
    for (std::size_t j = 0; j < jobs; ++j) {
        pool.enqueue([&, j] {
            hits[j] += 1;
            std::lock_guard<std::mutex> lock(mutex);
            --pending;
            cv.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return pending == 0; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EnqueueRunsInlineWithoutWorkers)
{
    ThreadPool pool(1); // no worker threads: enqueue must run inline
    int ran = 0;
    pool.enqueue([&] { ++ran; });
    EXPECT_EQ(ran, 1);
}

TEST(Timer, MeasuresNonNegativeDurations)
{
    WallTimer t;
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i)
        x = x + i;
    EXPECT_GE(t.seconds(), 0.0);
    EXPECT_GE(t.milliseconds(), t.seconds() * 1000 - 1e-9);
}

TEST(Sync, MutexLockExcludesConcurrentCriticalSections)
{
    // Counter increments under the annotated Mutex from many threads must
    // not lose updates (i.e. MutexLock really locks, not just annotates).
    Mutex mutex;
    std::size_t counter = 0;
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kIters = 2000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::size_t i = 0; i < kIters; ++i) {
                MutexLock lock(mutex);
                ++counter;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    MutexLock lock(mutex);
    EXPECT_EQ(counter, kThreads * kIters);
}

TEST(Sync, TryLockReportsContention)
{
    Mutex mutex;
    ASSERT_TRUE(mutex.try_lock());
    std::thread other([&] { EXPECT_FALSE(mutex.try_lock()); });
    other.join();
    mutex.unlock();
    ASSERT_TRUE(mutex.try_lock());
    mutex.unlock();
}

TEST(Sync, CondVarWakesExplicitWaitLoop)
{
    // The repo convention (explicit while-loops around CondVar::wait, no
    // predicate lambdas) must round-trip a producer/consumer handoff.
    Mutex mutex;
    CondVar cv;
    bool ready = false;
    int observed = 0;
    std::thread consumer([&] {
        MutexLock lock(mutex);
        while (!ready)
            cv.wait(mutex);
        observed = 42;
    });
    {
        MutexLock lock(mutex);
        ready = true;
        cv.notify_one();
    }
    consumer.join();
    EXPECT_EQ(observed, 42);
}

} // namespace
} // namespace lightridge
