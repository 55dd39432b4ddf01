(** Figure 3: relative latency of symbolic codegen vs static codegen for
    three dense operators from BERT, varying the number of residue-dispatch
    kernels (dispatch/8, /4, /2, no dispatch).

    This is a *real measurement*: the static, residue-specialized and
    boundary-guarded kernels are distinct schedules executed on the host;
    the guarded kernel's per-row clamping is exactly the cost the paper's
    symbolic codegen eliminates through dispatch. A pass times one call of
    each variant on each length of an MRPC-like mix covering all residues
    mod 8, the five variants interleaved; a cell is the median of
    {!passes} passes, so a slow moment of the host lands in one pass of
    every variant instead of in one variant's only sample. *)

open Nimble_tensor
module Dk = Nimble_codegen.Dense_kernels
module Dispatch = Nimble_codegen.Dispatch

(* The three dense shapes of a BERT-base layer (n, k). *)
let dense_ops =
  [ ("Dense1 (768x768)", 768, 768); ("Dense2 (3072x768)", 3072, 768); ("Dense3 (768x3072)", 768, 3072) ]

(* Sequence lengths covering all eight residues mod 8, so dispatch/8, /4,
   /2 hit their specialized kernels for 8/8, 4/8 and 2/8 of the inputs. *)
let lengths = [ 16; 9; 26; 35; 12; 21; 30; 23 ]

let passes = 7

(* One pass of [dense] over the lengths: the summed time of one warm call
   per length. *)
let time_pass inputs w (dense : Tensor.t -> Tensor.t -> Tensor.t) =
  List.fold_left
    (fun total a ->
      let t0 = Unix.gettimeofday () in
      ignore (dense a w);
      total +. (Unix.gettimeofday () -. t0))
    0.0 inputs

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Each variant's median pass time for dense shape (n, k). *)
let time_variants ~n ~k variants =
  let rng = Rng.create ~seed:99 in
  let w = Tensor.randn rng [| n; k |] in
  let inputs = List.map (fun m -> Tensor.randn rng [| m; k |]) lengths in
  List.iter (fun (_, f) -> List.iter (fun a -> ignore (f a w)) inputs) variants;
  let times = List.map (fun _ -> ref []) variants in
  for _ = 1 to passes do
    List.iter2 (fun (_, f) acc -> acc := time_pass inputs w f :: !acc) variants times
  done;
  List.map (fun acc -> median !acc) times

let variants () =
  let dispatch k = Dispatch.create ~num_kernels:k () in
  [
    ("static", fun a w -> Dk.residue_kernel ~residue:((Tensor.shape a).(0) mod Dk.tile) a w);
    ("dispatch/8", Dispatch.run (dispatch 8));
    ("dispatch/4", Dispatch.run (dispatch 4));
    ("dispatch/2", Dispatch.run (dispatch 2));
    ("no dispatch", fun a w -> Dk.guarded_kernel a w);
  ]

let run () =
  Fmt.pr "@.Figure 3: relative latency of symbolic vs static dense codegen@.";
  Fmt.pr "(100%% = static-shape kernel; measured on host, lengths %a; median of %d passes)@."
    Fmt.(list ~sep:(any ",") int)
    lengths passes;
  let columns = List.map fst (variants ()) in
  let rows =
    List.map
      (fun (name, n, k) ->
        let times = time_variants ~n ~k (variants ()) in
        let base = List.hd times in
        (name, List.map (fun t -> Some (100.0 *. t /. base)) times))
      dense_ops
  in
  Bench_util.print_table ~title:"relative latency (%)" ~unit:"op" ~columns rows
