open Hwf_sim

let test_empty () =
  let v = Vec.create () in
  Util.checki "length" 0 (Vec.length v);
  Alcotest.check Alcotest.(option int) "last" None (Vec.last v);
  Util.checkb "exists" (not (Vec.exists (fun _ -> true) v))

let test_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  Util.checki "length" 100 (Vec.length v);
  Util.checki "get 0" 0 (Vec.get v 0);
  Util.checki "get 99" 198 (Vec.get v 99);
  Alcotest.check Alcotest.(option int) "last" (Some 198) (Vec.last v)

let test_get_out_of_range () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "negative" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v (-1)));
  Alcotest.check_raises "too big" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 3))

let test_truncate () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Vec.truncate v 9;
  Util.checki "longer is a no-op" 4 (Vec.length v);
  Vec.truncate v 2;
  Alcotest.check Alcotest.(list int) "kept prefix" [ 1; 2 ] (Vec.to_list v);
  Vec.push v 7;
  Alcotest.check Alcotest.(list int) "push after truncate" [ 1; 2; 7 ] (Vec.to_list v)

let test_iter_order () =
  let v = Vec.of_list [ 3; 1; 4; 1; 5 ] in
  let acc = ref [] in
  Vec.iter (fun x -> acc := x :: !acc) v;
  Alcotest.check Alcotest.(list int) "order" [ 3; 1; 4; 1; 5 ] (List.rev !acc)

let test_iteri () =
  let v = Vec.of_list [ 10; 20 ] in
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.check
    Alcotest.(list (pair int int))
    "indexed" [ (0, 10); (1, 20) ] (List.rev !acc)

let test_fold () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Util.checki "sum" 10 (Vec.fold_left ( + ) 0 v)

let test_filter () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5 ] in
  Alcotest.check Alcotest.(list int) "evens" [ 2; 4 ] (Vec.filter (fun x -> x mod 2 = 0) v)

let prop_roundtrip =
  Util.qtest "of_list/to_list roundtrip" QCheck2.Gen.(list int) (fun l ->
      Vec.to_list (Vec.of_list l) = l)

let prop_push_grows =
  Util.qtest "push grows length by one" QCheck2.Gen.(pair (list int) int) (fun (l, x) ->
      let v = Vec.of_list l in
      let before = Vec.length v in
      Vec.push v x;
      Vec.length v = before + 1 && Vec.get v before = x)

let prop_exists_matches_list =
  Util.qtest "exists agrees with List.exists" QCheck2.Gen.(list small_int) (fun l ->
      Vec.exists (fun x -> x mod 3 = 0) (Vec.of_list l)
      = List.exists (fun x -> x mod 3 = 0) l)

let () =
  Alcotest.run "vec"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "push/get" `Quick test_push_get;
          Alcotest.test_case "out of range" `Quick test_get_out_of_range;
          Alcotest.test_case "iter order" `Quick test_iter_order;
          Alcotest.test_case "iteri" `Quick test_iteri;
          Alcotest.test_case "fold" `Quick test_fold;
          Alcotest.test_case "filter" `Quick test_filter;
          Alcotest.test_case "truncate" `Quick test_truncate;
        ] );
      ("props", [ prop_roundtrip; prop_push_grows; prop_exists_matches_list ]);
    ]
