//===- e2ebench/src/Loadgen.h - Driving pypmc and pypmd --------*- C++ -*-===//
///
/// \file
/// The load generator's process and socket plumbing: in-memory input and
/// output files for pypmc (memfds, so no timed path touches a disk), a
/// launcher process that spawns and reaps pypmc with posix_spawn, whose own
/// cost is small next to a 1 ms request, and a pypmd client that speaks the
/// library's own frame codec over the daemon's Unix socket.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_E2EBENCH_LOADGEN_H
#define PYPM_E2EBENCH_LOADGEN_H

#include "server/Protocol.h"

#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

namespace e2e {

/// Monotonic seconds.
double now();

/// An anonymous in-memory file. This process opens it by path(); a child
/// of the Launcher gets the descriptor passed and opens it by
/// childFilePath(). The parent reads back what was written with contents().
class MemFile {
public:
  explicit MemFile(std::string_view Contents = {});
  ~MemFile();
  MemFile(const MemFile &) = delete;
  MemFile &operator=(const MemFile &) = delete;

  int fd() const { return Fd; }
  std::string path() const;
  std::string contents() const;

private:
  int Fd = -1;
};

/// Makes SIGTERM, SIGINT and SIGHUP kill every child this process has
/// not reaped yet before the signal takes this process down.
void killChildrenOnFatalSignal();

/// Places this process on one CPU, the last it may use, and keeps the
/// others for pypmd (Daemon::start). Everything on the cli-cold path (this
/// process, the launcher, each pypmc) then shares one CPU: a child never
/// migrates, and its exec and exit need no cross-CPU TLB shootdowns, which
/// cost a VM exit each on a virtual machine. pypmd's threads never compete
/// with the client. With one CPU there is nothing to place.
void placeOnCpus();

/// The path under which a child started by Launcher::run opens the
/// \p I-th file passed with it.
std::string childFilePath(unsigned I);

/// How one child process ended.
struct ChildResult {
  int ExitCode = -1; ///< -1 when killed by a signal or timed out
  bool TimedOut = false;
  double Seconds = 0; ///< spawn to reap
  long MaxRssKb = 0;  ///< ru_maxrss
  double CpuSeconds = 0; ///< user + system
};

/// A small process that spawns and reaps every pypmc, so that ru_maxrss is
/// the child's own peak resident set.
///
/// glibc's posix_spawn runs the child in the caller's memory until exec
/// (CLONE_VM | CLONE_VFORK), and at exec Linux folds the peak resident set
/// of the memory being left into the child's ru_maxrss. Spawned from the
/// load generator, which holds every input and reference, each child would
/// report at least the load generator's own peak. The launcher is forked at
/// the top of main, before any input exists, and stays small; run() sends
/// it the argv and the files over a socket pair and gets the result back.
class Launcher {
public:
  Launcher() = default;
  ~Launcher() { stop(); }
  Launcher(const Launcher &) = delete;
  Launcher &operator=(const Launcher &) = delete;

  /// Forks the launcher. Call before this process starts threads or grows.
  bool start();
  /// Closes the socket, which ends the launcher, and reaps it.
  void stop();

  /// Runs \p Argv to completion (stdout and stderr to /dev/null), killing
  /// it after \p TimeoutSec. The child gets \p Files at childFilePath(0),
  /// childFilePath(1), ... A dead launcher fails every run.
  ChildResult run(const std::vector<std::string> &Argv,
                  const std::vector<const MemFile *> &Files, double TimeoutSec);

  /// The launcher's own peak resident set (VmHWM) in KiB. Every child's
  /// ru_maxrss is at least this, so a child peak at or below it measures
  /// the launcher, not the child.
  long peakRssKb() const;

private:
  pid_t Pid = -1;
  int Sock = -1;
};

/// One `pypmd serve --socket` process and one client connection to it.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns \p Pypmd with `serve --socket <Socket> --workers <Workers>` and
  /// connects once the socket accepts.
  bool start(const std::string &Pypmd, const std::string &Socket,
             unsigned Workers, std::string &Err);
  /// Closes the connection, stops the process and reaps it.
  void stop();

  /// Writes one already-framed request (server::frameBytes).
  bool sendFrame(std::string_view Frame);
  bool sendPing(uint64_t Seq);
  /// Reads one reply frame, waiting at most \p TimeoutSec. False on
  /// timeout or a broken stream.
  bool recvBody(std::string &Body, double TimeoutSec);
  /// send + recv + decode for one request; false unless a RewriteReply
  /// with the same Seq came back.
  bool roundTrip(const pypm::server::RewriteRequest &R,
                 pypm::server::RewriteReply &Rep, double TimeoutSec);

  /// Peak resident set (VmHWM) in KiB, and CPU seconds (all threads).
  long peakRssKb() const;
  double cpuSeconds() const;

private:
  pid_t Pid = -1;
  int Sock = -1;
  std::string SocketPath;
};

} // namespace e2e

#endif // PYPM_E2EBENCH_LOADGEN_H
