//===- e2ebench/src/Loadgen.cpp - Driving pypmc and pypmd ----------------===//

#include "Loadgen.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <sched.h>
#include <spawn.h>
#include <sstream>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace pypm::server;

namespace e2e {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// MemFile
//===----------------------------------------------------------------------===//

MemFile::MemFile(std::string_view Contents) {
  // A child gets the descriptor from Launcher::run, never by inheritance.
  Fd = ::memfd_create("e2ebench", MFD_CLOEXEC);
  size_t Off = 0;
  while (Fd >= 0 && Off < Contents.size()) {
    ssize_t N = ::write(Fd, Contents.data() + Off, Contents.size() - Off);
    if (N <= 0) {
      ::close(Fd);
      Fd = -1;
      break;
    }
    Off += static_cast<size_t>(N);
  }
}

MemFile::~MemFile() {
  if (Fd >= 0)
    ::close(Fd);
}

std::string MemFile::path() const {
  return "/proc/self/fd/" + std::to_string(Fd);
}

std::string MemFile::contents() const {
  struct stat St {};
  if (Fd < 0 || ::fstat(Fd, &St) != 0)
    return {};
  std::string Out(static_cast<size_t>(St.st_size), '\0');
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::pread(Fd, Out.data() + Off, Out.size() - Off,
                        static_cast<off_t>(Off));
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
  Out.resize(Off);
  return Out;
}

//===----------------------------------------------------------------------===//
// Children
//===----------------------------------------------------------------------===//

namespace {

/// Children not yet reaped, so that a fatal signal takes them down too.
std::atomic<pid_t> Live[8];

/// The CPUs placeOnCpus keeps for pypmd.
cpu_set_t ProgramCpus;
bool HaveProgramCpus = false;

void track(pid_t Pid) {
  for (std::atomic<pid_t> &Slot : Live) {
    pid_t Empty = 0;
    if (Slot.compare_exchange_strong(Empty, Pid))
      return;
  }
}

void untrack(pid_t Pid) {
  for (std::atomic<pid_t> &Slot : Live) {
    pid_t Expected = Pid;
    if (Slot.compare_exchange_strong(Expected, 0))
      return;
  }
}

extern "C" void onFatalSignal(int Sig) {
  for (std::atomic<pid_t> &Slot : Live)
    if (pid_t Pid = Slot.load())
      ::kill(Pid, SIGKILL);
  ::signal(Sig, SIG_DFL);
  ::raise(Sig);
}

/// Where a launched child finds its files: descriptors kChildFd0,
/// kChildFd0 + 1, ...
constexpr int kChildFd0 = 10;
constexpr unsigned kMaxFiles = 8;

/// posix_spawn (vfork-like in glibc: no page-table copy of this process)
/// with stdout and stderr sent to /dev/null and \p Files placed at
/// kChildFd0 + i. The caller keeps every descriptor in \p Files outside
/// that range.
pid_t spawn(const std::vector<std::string> &Argv,
            const std::vector<int> &Files = {}) {
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&FA, 1, 2);
  for (size_t I = 0; I != Files.size(); ++I)
    posix_spawn_file_actions_adddup2(&FA, Files[I],
                                     kChildFd0 + static_cast<int>(I));
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  pid_t Pid = -1;
  if (::posix_spawn(&Pid, Args[0], &FA, nullptr, Args.data(), environ) != 0)
    Pid = -1;
  posix_spawn_file_actions_destroy(&FA);
  if (Pid > 0)
    track(Pid);
  return Pid;
}

/// Reaps \p Pid (blocking) and forgets it.
int reap(pid_t Pid, rusage *RU = nullptr) {
  int Status = 0;
  while (::wait4(Pid, &Status, 0, RU) < 0 && errno == EINTR)
    ;
  untrack(Pid);
  return Status;
}

/// Waits until \p Pid exits or \p TimeoutSec passes; true if it exited
/// (it is then still unreaped).
bool waitExit(pid_t Pid, double TimeoutSec) {
  int PidFd = static_cast<int>(::syscall(SYS_pidfd_open, Pid, 0));
  if (PidFd < 0)
    return true; // fall back to a blocking reap
  pollfd P{PidFd, POLLIN, 0};
  int R;
  do
    R = ::poll(&P, 1, static_cast<int>(TimeoutSec * 1000));
  while (R < 0 && errno == EINTR);
  ::close(PidFd);
  return R > 0;
}

} // namespace

void killChildrenOnFatalSignal() {
  struct sigaction SA {};
  SA.sa_handler = onFatalSignal;
  sigemptyset(&SA.sa_mask);
  for (int Sig : {SIGTERM, SIGINT, SIGHUP})
    ::sigaction(Sig, &SA, nullptr);
}

void placeOnCpus() {
  cpu_set_t All;
  if (::sched_getaffinity(0, sizeof(All), &All) != 0 || CPU_COUNT(&All) < 2)
    return;
  int Last = 0;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &All))
      Last = C;
  cpu_set_t Client;
  CPU_ZERO(&Client);
  CPU_SET(Last, &Client);
  if (::sched_setaffinity(0, sizeof(Client), &Client) != 0)
    return;
  ProgramCpus = All;
  CPU_CLR(Last, &ProgramCpus);
  HaveProgramCpus = true;
}

std::string childFilePath(unsigned I) {
  return "/proc/self/fd/" + std::to_string(kChildFd0 + static_cast<int>(I));
}

namespace {

/// Spawns \p Argv with \p Files, waits for it at most \p TimeoutSec and
/// reaps it.
ChildResult runChild(const std::vector<std::string> &Argv,
                     const std::vector<int> &Files, double TimeoutSec) {
  ChildResult Res;
  double T0 = now();
  pid_t Pid = spawn(Argv, Files);
  if (Pid < 0)
    return Res;
  if (!waitExit(Pid, TimeoutSec)) {
    ::kill(Pid, SIGKILL);
    Res.TimedOut = true;
  }
  rusage RU{};
  int Status = reap(Pid, &RU);
  Res.Seconds = now() - T0;
  if (!Res.TimedOut && WIFEXITED(Status))
    Res.ExitCode = WEXITSTATUS(Status);
  Res.MaxRssKb = RU.ru_maxrss;
  Res.CpuSeconds = static_cast<double>(RU.ru_utime.tv_sec + RU.ru_stime.tv_sec) +
                   static_cast<double>(RU.ru_utime.tv_usec + RU.ru_stime.tv_usec) * 1e-6;
  return Res;
}

/// A launch request is one datagram: the timeout, then the argv as
/// NUL-terminated strings, with the files as SCM_RIGHTS. The reply is the
/// ChildResult.
constexpr size_t kMaxRequest = 8192;

/// The launcher's loop; ends when the load generator closes its end.
[[noreturn]] void serveLaunches(int Sock) {
  std::vector<char> Buf(kMaxRequest);
  alignas(cmsghdr) char Ctl[CMSG_SPACE(sizeof(int) * kMaxFiles)];
  for (;;) {
    iovec Io{Buf.data(), Buf.size()};
    msghdr M{};
    M.msg_iov = &Io;
    M.msg_iovlen = 1;
    M.msg_control = Ctl;
    M.msg_controllen = sizeof(Ctl);
    ssize_t N = ::recvmsg(Sock, &M, MSG_CMSG_CLOEXEC);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < static_cast<ssize_t>(sizeof(double)))
      ::_exit(0);
    std::vector<int> Files;
    for (cmsghdr *C = CMSG_FIRSTHDR(&M); C; C = CMSG_NXTHDR(&M, C)) {
      if (C->cmsg_level != SOL_SOCKET || C->cmsg_type != SCM_RIGHTS)
        continue;
      size_t Count = (C->cmsg_len - CMSG_LEN(0)) / sizeof(int);
      for (size_t I = 0; I != Count; ++I) {
        int Fd;
        std::memcpy(&Fd, CMSG_DATA(C) + I * sizeof(int), sizeof(int));
        // Out of the range the child's files are placed in.
        int High = ::fcntl(Fd, F_DUPFD_CLOEXEC, kChildFd0 + int(kMaxFiles));
        ::close(Fd);
        Files.push_back(High);
      }
    }
    double TimeoutSec;
    std::memcpy(&TimeoutSec, Buf.data(), sizeof(double));
    std::vector<std::string> Argv;
    for (size_t Off = sizeof(double); Off < static_cast<size_t>(N);) {
      Argv.emplace_back(Buf.data() + Off);
      Off += Argv.back().size() + 1;
    }
    ChildResult R;
    if (!Argv.empty() &&
        std::find(Files.begin(), Files.end(), -1) == Files.end())
      R = runChild(Argv, Files, TimeoutSec);
    for (int Fd : Files)
      if (Fd >= 0)
        ::close(Fd);
    while (::send(Sock, &R, sizeof(R), 0) < 0 && errno == EINTR)
      ;
  }
}

long vmHwmKb(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  for (std::string L; std::getline(In, L);)
    if (L.rfind("VmHWM:", 0) == 0)
      return std::strtol(L.c_str() + 6, nullptr, 10);
  return 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Launcher
//===----------------------------------------------------------------------===//

bool Launcher::start() {
  int Pair[2];
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, Pair) != 0)
    return false;
  pid_t Parent = ::getpid();
  Pid = ::fork();
  if (Pid < 0) {
    ::close(Pair[0]);
    ::close(Pair[1]);
    return false;
  }
  if (Pid == 0) {
    ::close(Pair[0]);
    // If the load generator dies, SIGTERM lands here and the inherited
    // handler takes the running child down too.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != Parent)
      ::_exit(0);
    serveLaunches(Pair[1]);
  }
  ::close(Pair[1]);
  Sock = Pair[0];
  return true;
}

void Launcher::stop() {
  if (Sock >= 0) {
    ::close(Sock);
    Sock = -1;
  }
  if (Pid > 0) {
    int Status;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
      ;
    Pid = -1;
  }
}

ChildResult Launcher::run(const std::vector<std::string> &Argv,
                          const std::vector<const MemFile *> &Files,
                          double TimeoutSec) {
  ChildResult R;
  std::string Msg(sizeof(double), '\0');
  std::memcpy(Msg.data(), &TimeoutSec, sizeof(double));
  for (const std::string &A : Argv)
    Msg.append(A.c_str(), A.size() + 1);
  if (Sock < 0 || Files.size() > kMaxFiles || Msg.size() > kMaxRequest)
    return R;
  alignas(cmsghdr) char Ctl[CMSG_SPACE(sizeof(int) * kMaxFiles)] = {};
  iovec Io{Msg.data(), Msg.size()};
  msghdr M{};
  M.msg_iov = &Io;
  M.msg_iovlen = 1;
  if (!Files.empty()) {
    M.msg_control = Ctl;
    M.msg_controllen = CMSG_SPACE(sizeof(int) * Files.size());
    cmsghdr *C = CMSG_FIRSTHDR(&M);
    C->cmsg_level = SOL_SOCKET;
    C->cmsg_type = SCM_RIGHTS;
    C->cmsg_len = CMSG_LEN(sizeof(int) * Files.size());
    for (size_t I = 0; I != Files.size(); ++I) {
      int Fd = Files[I]->fd();
      std::memcpy(CMSG_DATA(C) + I * sizeof(int), &Fd, sizeof(int));
    }
  }
  ssize_t N;
  while ((N = ::sendmsg(Sock, &M, 0)) < 0 && errno == EINTR)
    ;
  if (N != static_cast<ssize_t>(Msg.size()))
    return R;
  while ((N = ::recv(Sock, &R, sizeof(R), 0)) < 0 && errno == EINTR)
    ;
  if (N != static_cast<ssize_t>(sizeof(R)))
    return ChildResult{};
  return R;
}

long Launcher::peakRssKb() const { return Pid > 0 ? vmHwmKb(Pid) : 0; }

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

static int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool Daemon::start(const std::string &Pypmd, const std::string &Socket,
                   unsigned Workers, std::string &Err) {
  stop();
  SocketPath = Socket;
  ::unlink(Socket.c_str());
  // The child inherits the spawning thread's CPUs: lend it pypmd's.
  cpu_set_t Mine;
  bool Moved = HaveProgramCpus &&
               ::sched_getaffinity(0, sizeof(Mine), &Mine) == 0 &&
               ::sched_setaffinity(0, sizeof(ProgramCpus), &ProgramCpus) == 0;
  Pid = spawn({Pypmd, "serve", "--socket", Socket, "--workers",
               std::to_string(Workers)});
  if (Moved)
    ::sched_setaffinity(0, sizeof(Mine), &Mine);
  if (Pid < 0) {
    Err = "cannot spawn " + Pypmd;
    return false;
  }
  // Ready means accepting: pypmd binds its socket only after start-up.
  double Deadline = now() + 30;
  while ((Sock = connectTo(Socket)) < 0) {
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      untrack(Pid);
      Pid = -1;
      Err = "pypmd exited during start-up";
      return false;
    }
    if (now() > Deadline) {
      Err = "pypmd socket never became ready";
      stop();
      return false;
    }
    ::usleep(100);
  }
  return true;
}

void Daemon::stop() {
  if (Sock >= 0) {
    ::close(Sock);
    Sock = -1;
  }
  if (Pid <= 0)
    return;
  // SIGTERM sets pypmd's shutdown flag; a connection attempt wakes the
  // accept loop in case the signal landed on another thread.
  ::kill(Pid, SIGTERM);
  for (int Try = 0; !waitExit(Pid, 0.1); ++Try) {
    if (Try == 50) {
      ::kill(Pid, SIGKILL);
      waitExit(Pid, 5);
      break;
    }
    int Nudge = connectTo(SocketPath);
    if (Nudge >= 0)
      ::close(Nudge);
  }
  reap(Pid);
  Pid = -1;
  ::unlink(SocketPath.c_str());
}

bool Daemon::sendFrame(std::string_view Frame) {
  size_t Off = 0;
  while (Off < Frame.size()) {
    ssize_t N = ::write(Sock, Frame.data() + Off, Frame.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool Daemon::sendPing(uint64_t Seq) {
  return writeFrame(Sock, /*Request=*/true, encodePing(Seq));
}

bool Daemon::recvBody(std::string &Body, double TimeoutSec) {
  pollfd P{Sock, POLLIN, 0};
  int R;
  do
    R = ::poll(&P, 1, static_cast<int>(TimeoutSec * 1000));
  while (R < 0 && errno == EINTR);
  return R > 0 && readFrame(Sock, /*Request=*/false, Body) == FrameStatus::Ok;
}

bool Daemon::roundTrip(const RewriteRequest &R, RewriteReply &Rep,
                       double TimeoutSec) {
  std::string Body, Err;
  return sendFrame(frameBytes(/*Request=*/true, encodeRewriteRequest(R))) &&
         recvBody(Body, TimeoutSec) &&
         frameType(Body) == FrameType::RewriteReply &&
         decodeRewriteReply(Body, Rep, Err) && Rep.Seq == R.Seq;
}

long Daemon::peakRssKb() const { return vmHwmKb(Pid); }

double Daemon::cpuSeconds() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string S((std::istreambuf_iterator<char>(In)),
                std::istreambuf_iterator<char>());
  size_t Close = S.rfind(')');
  if (Close == std::string::npos)
    return 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream F(S.substr(Close + 2));
  std::string Tok;
  unsigned long long UTime = 0, STime = 0;
  for (int Field = 3; Field <= 15 && (F >> Tok); ++Field) {
    if (Field == 14)
      UTime = std::strtoull(Tok.c_str(), nullptr, 10);
    if (Field == 15)
      STime = std::strtoull(Tok.c_str(), nullptr, 10);
  }
  return static_cast<double>(UTime + STime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

} // namespace e2e
