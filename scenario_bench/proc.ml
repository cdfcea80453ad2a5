(* Child processes: each crcheck query (and the replay child) runs as a
   fresh process, reaped with wait4 for its peak RSS. *)

external wait4 : int -> int * int = "scenarios_wait4"
(** [wait4 pid] blocks until [pid] ends: (exit code, or -signal; peak
    RSS in KiB). *)

let timeout_s = 120.

let is_cr binding = String.starts_with ~prefix:"CR_" binding

(* Names of the CR_* variables the bench was started with; children
   never see them, so a stray CR_STATS, CR_JOURNAL or CR_JOBS cannot
   trace or perturb a timed run. *)
let removed_env () =
  Array.to_list (Unix.environment ())
  |> List.filter is_cr
  |> List.map (fun b ->
         match String.index_opt b '=' with Some i -> String.sub b 0 i | None -> b)

(* A child's environment: the bench's own minus CR_*, with HOME, TMPDIR
   and XDG_CACHE_HOME moved into [dir], so anything a child persists
   stays in the checkout and a fresh [dir] starts cold. *)
let env ~dir =
  let moved = [ "HOME"; "TMPDIR"; "XDG_CACHE_HOME" ] in
  let keep b =
    (not (is_cr b))
    && not (List.exists (fun k -> String.starts_with ~prefix:(k ^ "=") b) moved)
  in
  Array.of_list
    (List.filter keep (Array.to_list (Unix.environment ()))
    @ List.map (fun k -> k ^ "=" ^ dir) moved)

type outcome = {
  code : int;
  timed_out : bool;
  wall_s : float;  (** spawn to reap, monotonic *)
  rss_kib : int;
  output : string;  (** everything the child wrote to stdout *)
}

(* Run [prog args] in directory [dir] (absolute).  Stdout is read
   through a pipe as it arrives, so the child never blocks on a full
   pipe and its end of output marks its exit; stderr goes to [stderr].
   A child still running after [timeout_s] is killed. *)
let run ~dir ~stderr prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let stdin = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let cwd = Sys.getcwd () in
  let t0 = Stats.now () in
  let pid =
    Unix.chdir dir;
    Fun.protect
      ~finally:(fun () -> Unix.chdir cwd)
      (fun () ->
        Unix.create_process_env prog
          (Array.of_list (prog :: args))
          (env ~dir) stdin w stderr)
  in
  Unix.close w;
  Unix.close stdin;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec drain () =
    let left = t0 +. timeout_s -. Stats.now () in
    if left <= 0. then false
    else
      match Unix.select [ r ] [] [] left with
      | [], _, _ -> false
      | _ ->
          let k = Unix.read r chunk 0 (Bytes.length chunk) in
          if k = 0 then true
          else begin
            Buffer.add_subbytes buf chunk 0 k;
            drain ()
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  let finished = drain () in
  if not finished then Unix.kill pid Sys.sigkill;
  let code, rss_kib = wait4 pid in
  let wall_s = Stats.now () -. t0 in
  Unix.close r;
  { code; timed_out = not finished; wall_s; rss_kib; output = Buffer.contents buf }

(* Remove a directory tree the bench created. *)
let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end
