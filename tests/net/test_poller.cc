// The epoll Poller against a pipe: readiness, interest updates, removal,
// level-triggering.
#include "net/poller.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <vector>

#include "net/socket.h"

namespace facsp::net {
namespace {

class PollerTest : public ::testing::Test {
 protected:
  Poller poller_;
  std::vector<PollEvent> events_;
};

TEST_F(PollerTest, EmptyWaitTimesOut) {
  EXPECT_EQ(poller_.wait(10, events_), 0u);
  EXPECT_TRUE(events_.empty());
}

TEST_F(PollerTest, PipeReadability) {
  WakePipe pipe;
  poller_.add(pipe.read_end.get(), /*read=*/true, /*write=*/false);

  EXPECT_EQ(poller_.wait(0, events_), 0u);  // nothing written yet

  pipe.poke();
  ASSERT_EQ(poller_.wait(1000, events_), 1u);
  EXPECT_EQ(events_[0].fd, pipe.read_end.get());
  EXPECT_TRUE(events_[0].readable);
  EXPECT_FALSE(events_[0].writable);

  pipe.drain();
  EXPECT_EQ(poller_.wait(0, events_), 0u);
}

TEST_F(PollerTest, WritableInterestAndModify) {
  WakePipe pipe;
  // An empty pipe's write end is writable immediately.
  poller_.add(pipe.write_end.get(), /*read=*/false, /*write=*/true);
  ASSERT_EQ(poller_.wait(1000, events_), 1u);
  EXPECT_TRUE(events_[0].writable);

  // Dropping write interest silences it.
  poller_.modify(pipe.write_end.get(), /*read=*/false, /*write=*/false);
  EXPECT_EQ(poller_.wait(0, events_), 0u);

  // And restoring it brings it back.
  poller_.modify(pipe.write_end.get(), /*read=*/false, /*write=*/true);
  ASSERT_EQ(poller_.wait(1000, events_), 1u);
}

TEST_F(PollerTest, RemoveStopsEvents) {
  WakePipe pipe;
  poller_.add(pipe.read_end.get(), true, false);
  pipe.poke();
  ASSERT_EQ(poller_.wait(1000, events_), 1u);
  poller_.remove(pipe.read_end.get());
  EXPECT_EQ(poller_.wait(0, events_), 0u);  // byte still pending, fd gone
}

TEST_F(PollerTest, LevelTriggeredUntilDrained) {
  // The event loop relies on level-triggering: an unread byte keeps
  // reporting readable on every wait.
  WakePipe pipe;
  poller_.add(pipe.read_end.get(), true, false);
  pipe.poke();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(poller_.wait(1000, events_), 1u) << "sweep " << i;
    EXPECT_TRUE(events_[0].readable);
  }
  pipe.drain();
  EXPECT_EQ(poller_.wait(0, events_), 0u);
}

TEST_F(PollerTest, MultipleFdsReportIndependently) {
  WakePipe a, b;
  poller_.add(a.read_end.get(), true, false);
  poller_.add(b.read_end.get(), true, false);
  b.poke();
  ASSERT_EQ(poller_.wait(1000, events_), 1u);
  EXPECT_EQ(events_[0].fd, b.read_end.get());
  a.poke();
  ASSERT_EQ(poller_.wait(1000, events_), 2u);
}

}  // namespace
}  // namespace facsp::net
