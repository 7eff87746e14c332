(* Machine-speed calibration. The benchmark's host switches between
   speed states, often within a second, and a run can spend most of its
   time in a slow one: every timing then reads up to ~1.6x higher. A
   fixed kernel that allocates like the workloads do (short strings, a
   hash table, a list sort) runs before every round of a one-client
   workload, and the round's times are scaled by [reference_s] over the
   kernel's time. The kernel uses only the standard library, so no
   change to the program under test moves it. Scaled times read as if
   the host ran at the speed where the kernel takes [reference_s]. *)

let reference_s = 0.003

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i land 4095) (string_of_int i)
  done;
  let l = List.init 5000 (fun i -> i * 7919 mod 5003) in
  ignore (Sys.opaque_identity (List.sort compare l, h))

let time () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  Unix.gettimeofday () -. t0
