#include "net/poller.h"

#include <cerrno>

namespace facsp::net {

namespace {

epoll_event event_for(int fd, bool read, bool write) noexcept {
  epoll_event ev{};
  if (read) ev.events |= EPOLLIN;
  if (write) ev.events |= EPOLLOUT;
  ev.data.fd = fd;
  return ev;
}

}  // namespace

Poller::Poller() : epfd_(::epoll_create1(0)) {
  if (!epfd_.valid()) throw SocketError("epoll_create1", "", errno);
  events_.resize(64);
}

void Poller::add(int fd, bool read, bool write) {
  epoll_event ev = event_for(fd, read, write);
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0)
    throw SocketError("epoll_ctl(ADD)", "", errno);
  ++registered_;
}

void Poller::modify(int fd, bool read, bool write) {
  epoll_event ev = event_for(fd, read, write);
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0)
    throw SocketError("epoll_ctl(MOD)", "", errno);
}

void Poller::remove(int fd) {
  epoll_event ev{};
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, &ev) < 0)
    throw SocketError("epoll_ctl(DEL)", "", errno);
  --registered_;
}

std::size_t Poller::wait(int timeout_ms, std::vector<PollEvent>& out) {
  out.clear();
  if (events_.size() < registered_) events_.resize(registered_);
  const int n = ::epoll_wait(epfd_.get(), events_.data(),
                             static_cast<int>(events_.size()), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw SocketError("epoll_wait", "", errno);
  }
  for (int i = 0; i < n; ++i) {
    const epoll_event& ep = events_[static_cast<std::size_t>(i)];
    PollEvent e;
    e.fd = ep.data.fd;
    e.readable = (ep.events & EPOLLIN) != 0;
    e.writable = (ep.events & EPOLLOUT) != 0;
    e.error = (ep.events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(e);
  }
  return out.size();
}

}  // namespace facsp::net
