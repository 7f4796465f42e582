// Lock-order good fixture, member calls: Inbox::wait calls
// board_->publish() with inbox_mutex_ held, a followed member call
// (inbox_mutex_ -> board_mutex_). Board::publish, holding board_mutex_,
// calls a std::vector's size() and a CondVar's wait(), names of Inbox's
// acquiring methods. Following those by name would add board_mutex_ ->
// inbox_mutex_ and close a cycle; their receivers are no Inbox.
#include <vector>

namespace kc::compat {
class Mutex {};
class MutexLock {
 public:
  explicit MutexLock(Mutex& m);
};
class CondVar {
 public:
  void wait(MutexLock& lock);
};
}  // namespace kc::compat

namespace kc {

class Board;

class Inbox {
 public:
  int size();
  void wait();

 private:
  compat::Mutex inbox_mutex_;
  Board* board_ = nullptr;
  int count_ = 0;
};

class Board {
 public:
  void publish();

 private:
  compat::Mutex board_mutex_;
  compat::CondVar ready_;
  std::vector<int> posts_;
};

int Inbox::size() {
  compat::MutexLock lock(inbox_mutex_);
  return count_;
}

void Inbox::wait() {
  compat::MutexLock lock(inbox_mutex_);
  board_->publish();
}

void Board::publish() {
  compat::MutexLock lock(board_mutex_);
  while (posts_.size() > 8) ready_.wait(lock);
  posts_.push_back(1);
}

}  // namespace kc
