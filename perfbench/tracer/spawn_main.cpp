// perfbench_spawn: runs a command and reports its peak resident set.
//
//   perfbench_spawn RSS_FILE COMMAND [ARGS...]
//
// Linux carries a process's peak RSS across execve, and a child spawned
// straight from the benchmark's Python script starts from the script's
// own peak.  This launcher is small, so the command it forks reports its
// own peak.  The command inherits stdin, stdout and stderr; the launcher
// closes its own copies of stdin and stdout so that end-of-file reaches
// both ends of any pipe as if the command had been spawned directly.  It
// writes the peak in KiB to RSS_FILE and exits with the command's status.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench_spawn RSS_FILE COMMAND [ARGS...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_spawn: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror("perfbench_spawn: exec");
    _exit(127);
  }
  close(0);
  close(1);
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("perfbench_spawn: wait4");
    return 2;
  }
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr || std::fprintf(out, "%ld\n", usage.ru_maxrss) < 0 ||
      std::fclose(out) != 0) {
    std::perror("perfbench_spawn: write");
    return 2;
  }
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
