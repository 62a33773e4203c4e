// Readiness polling for the event loop: one epoll instance, Linux only.
// Level-triggered — the event loop re-arms nothing and simply drains what
// it can each pass; a fd with unread bytes or writable space reports ready
// again on the next wait.
#pragma once

#include <cstddef>
#include <vector>

#include <sys/epoll.h>

#include "net/socket.h"

namespace facsp::net {

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Error/hangup.  The owner should read (to collect a pending error or
  /// EOF) and close.
  bool error = false;
};

class Poller {
 public:
  /// Creates the epoll fd (throws SocketError on failure); closes it on
  /// destruction.
  Poller();

  /// Register `fd` with the given interest set.  fd must not already be
  /// registered.
  void add(int fd, bool read, bool write);
  /// Change the interest set of a registered fd.
  void modify(int fd, bool read, bool write);
  /// Deregister; must be called before the fd is closed.
  void remove(int fd);

  /// Wait up to timeout_ms (-1 = forever) and fill `out` (cleared first)
  /// with ready fds.  Returns the event count; EINTR reports as 0 events.
  std::size_t wait(int timeout_ms, std::vector<PollEvent>& out);

 private:
  UniqueFd epfd_;
  std::vector<epoll_event> events_;
  std::size_t registered_ = 0;
};

}  // namespace facsp::net
