/* wait4(2) for the scenario bench: OCaml's Unix.waitpid drops the
   rusage, and the child's peak RSS is one of the end-to-end metrics. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* Block until [pid] ends; return (exit code, or -signal when killed;
   peak resident set size in KiB). */
CAMLprim value scenarios_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0, err = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  err = errno;
  caml_leave_blocking_section();
  if (r < 0) {
    errno = err;
    uerror("wait4", Nothing);
  }
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
