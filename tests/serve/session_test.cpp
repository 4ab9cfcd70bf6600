// serve::Session against a fake ScanService, with an executor that holds
// every task until the test runs it. Only the rules no front-end test pins
// live here: the `reload` sequence point and the pending cap's source.

#include "serve/session.hpp"

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/scan_service.hpp"
#include "serve/verdict.hpp"
#include "serve/wire.hpp"

namespace magic::serve {
namespace {

/// Scans resolve as soon as they are submitted; control replies at once.
class FakeService final : public ScanService {
 public:
  explicit FakeService(std::size_t capacity) : capacity_(capacity) {}

  PendingVerdict submit_listing(std::string_view, const std::string&) override {
    ++submitted;
    Verdict verdict;
    verdict.status = VerdictStatus::Ok;
    verdict.prediction.family_name = "stub";
    return PendingVerdict::resolved(std::move(verdict));
  }
  std::string stats_json() override { return "{\"stub\":true}"; }
  std::string control(const wire::Request&) override {
    ++controls;
    return "{\"status\":\"ok\",\"op\":\"reload\"}";
  }
  std::size_t queue_capacity() const override { return capacity_; }
  void drain() override {}

  int submitted = 0;
  int controls = 0;

 private:
  std::size_t capacity_;
};

/// Executor that queues tasks; the test decides when each one runs.
struct HeldTasks {
  Session::Hooks hooks() {
    Session::Hooks hooks;
    hooks.execute = [this](std::function<void()> task) {
      tasks.push_back(std::move(task));
    };
    hooks.wake = [this] { ++wakes; };
    hooks.render_stats = [] { return std::string("{\"stub\":true}"); };
    return hooks;
  }
  void run(std::size_t i) { tasks.at(i)(); }

  std::vector<std::function<void()>> tasks;
  int wakes = 0;
};

std::string scan_line(const std::string& id) {
  return id + " b64 " + wire::base64_encode("401000 ret\n") + "\n";
}

std::size_t count_lines(const std::string& out) {
  std::size_t n = 0;
  for (const char c : out) n += c == '\n' ? 1 : 0;
  return n;
}

TEST(Session, LinesAfterUnresolvedReloadStayUnparsed) {
  FakeService service(/*capacity=*/8);
  HeldTasks held;
  Session session(service, held.hooks());
  session.feed("reload v2 /any/checkpoint\n" + scan_line("after") + "stats\n");

  std::string out;
  EXPECT_EQ(session.pump(out), 0u);
  EXPECT_TRUE(out.empty());
  ASSERT_EQ(held.tasks.size(), 1u);  // the reload alone
  EXPECT_FALSE(session.reading());
  EXPECT_EQ(service.submitted, 0);

  held.run(0);
  EXPECT_EQ(service.controls, 1);
  EXPECT_EQ(held.wakes, 1);
  EXPECT_EQ(session.pump(out), 1u);  // the scan is parsed only now
  EXPECT_EQ(out, "{\"status\":\"ok\",\"op\":\"reload\"}\n");
  ASSERT_EQ(held.tasks.size(), 2u);
  EXPECT_TRUE(session.reading());

  held.run(1);
  EXPECT_EQ(service.submitted, 1);
  session.end_input();
  session.pump(out);
  ASSERT_EQ(count_lines(out), 3u);
  EXPECT_NE(out.find("\"id\":\"after\""), std::string::npos) << out;
  EXPECT_NE(out.find("{\"stub\":true}\n"), std::string::npos) << out;
  EXPECT_TRUE(session.done());
}

TEST(Session, PendingCapIsTheServiceQueueCapacity) {
  FakeService service(/*capacity=*/4);
  HeldTasks held;
  Session session(service, held.hooks());
  for (int r = 0; r < 10; ++r) session.feed(scan_line(std::to_string(r)));

  std::string out;
  EXPECT_EQ(session.pump(out), 4u);  // four owed: parsing pauses
  EXPECT_FALSE(session.reading());
  held.run(0);
  EXPECT_EQ(session.pump(out), 0u);  // three owed: still above half the cap
  EXPECT_EQ(count_lines(out), 1u);
  held.run(1);
  EXPECT_EQ(session.pump(out), 2u);  // two owed: resume and refill to four
  EXPECT_EQ(count_lines(out), 2u);
  EXPECT_EQ(held.tasks.size(), 6u);

  // A service that reports no capacity still makes progress, one at a time.
  FakeService empty(/*capacity=*/0);
  HeldTasks single;
  Session lone(empty, single.hooks());
  lone.feed(scan_line("a") + scan_line("b"));
  std::string lone_out;
  EXPECT_EQ(lone.pump(lone_out), 1u);
  single.run(0);
  EXPECT_EQ(lone.pump(lone_out), 1u);
  EXPECT_EQ(count_lines(lone_out), 1u);
}

}  // namespace
}  // namespace magic::serve
