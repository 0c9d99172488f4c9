open Helpers

let ints_tests =
  [
    case "ceil_div exact" (fun () -> check_int "8/4" 2 (Util.Ints.ceil_div 8 4));
    case "ceil_div rounds up" (fun () ->
        check_int "9/4" 3 (Util.Ints.ceil_div 9 4));
    case "ceil_div of zero" (fun () ->
        check_int "0/4" 0 (Util.Ints.ceil_div 0 4));
    case "ceil_div one" (fun () -> check_int "7/1" 7 (Util.Ints.ceil_div 7 1));
    case "ceil_div rejects zero divisor" (fun () ->
        check_raises_invalid "div by 0" (fun () -> Util.Ints.ceil_div 4 0));
    case "ceil_div rejects negative dividend" (fun () ->
        check_raises_invalid "neg" (fun () -> Util.Ints.ceil_div (-1) 2));
    case "clamp inside" (fun () ->
        check_int "5 in [1,9]" 5 (Util.Ints.clamp ~lo:1 ~hi:9 5));
    case "clamp below" (fun () ->
        check_int "0 -> 1" 1 (Util.Ints.clamp ~lo:1 ~hi:9 0));
    case "clamp above" (fun () ->
        check_int "12 -> 9" 9 (Util.Ints.clamp ~lo:1 ~hi:9 12));
    case "clamp rejects inverted range" (fun () ->
        check_raises_invalid "lo>hi" (fun () -> Util.Ints.clamp ~lo:3 ~hi:1 2));
    case "pow basics" (fun () ->
        check_int "2^10" 1024 (Util.Ints.pow 2 10);
        check_int "3^0" 1 (Util.Ints.pow 3 0);
        check_int "7^1" 7 (Util.Ints.pow 7 1));
    case "pow rejects negative exponent" (fun () ->
        check_raises_invalid "neg exp" (fun () -> Util.Ints.pow 2 (-1)));
    case "gcd and lcm" (fun () ->
        check_int "gcd 12 18" 6 (Util.Ints.gcd 12 18);
        check_int "gcd 7 13" 1 (Util.Ints.gcd 7 13);
        check_int "gcd 0 5" 5 (Util.Ints.gcd 0 5);
        check_int "lcm 4 6" 12 (Util.Ints.lcm 4 6);
        check_int "lcm 0" 0 (Util.Ints.lcm 0 9));
    case "divisors of 12" (fun () ->
        Alcotest.(check (list int))
          "divisors" [ 1; 2; 3; 4; 6; 12 ]
          (Util.Ints.divisors 12));
    case "divisors of prime" (fun () ->
        Alcotest.(check (list int)) "13" [ 1; 13 ] (Util.Ints.divisors 13));
    case "divisors of square" (fun () ->
        Alcotest.(check (list int)) "16" [ 1; 2; 4; 8; 16 ]
          (Util.Ints.divisors 16));
    case "round_down_to_divisor" (fun () ->
        check_int "12@5" 4 (Util.Ints.round_down_to_divisor 12 5);
        check_int "12@6" 6 (Util.Ints.round_down_to_divisor 12 6);
        check_int "12@0" 1 (Util.Ints.round_down_to_divisor 12 0));
    case "pow2 family" (fun () ->
        check_true "1024 is pow2" (Util.Ints.is_pow2 1024);
        check_false "1000 is not" (Util.Ints.is_pow2 1000);
        check_false "0 is not" (Util.Ints.is_pow2 0);
        check_int "prev 1000" 512 (Util.Ints.prev_pow2 1000);
        check_int "next 1000" 1024 (Util.Ints.next_pow2 1000);
        check_int "next of pow2" 64 (Util.Ints.next_pow2 64));
    case "sum and prod" (fun () ->
        check_int "sum" 10 (Util.Ints.sum [ 1; 2; 3; 4 ]);
        check_int "prod" 24 (Util.Ints.prod [ 1; 2; 3; 4 ]);
        check_int "empty prod" 1 (Util.Ints.prod []));
  ]

let perm_tests =
  [
    case "factorial" (fun () ->
        check_int "0!" 1 (Util.Perm.factorial 0);
        check_int "4!" 24 (Util.Perm.factorial 4);
        check_int "10!" 3628800 (Util.Perm.factorial 10));
    case "factorial range" (fun () ->
        check_raises_invalid "21!" (fun () -> Util.Perm.factorial 21));
    case "all permutations count" (fun () ->
        check_int "3 elems" 6 (List.length (Util.Perm.all [ 1; 2; 3 ]));
        check_int "empty" 1 (List.length (Util.Perm.all []));
        check_int "4 elems" 24 (List.length (Util.Perm.all [ 1; 2; 3; 4 ])));
    case "all permutations are distinct" (fun () ->
        let perms = Util.Perm.all [ 1; 2; 3; 4 ] in
        check_int "unique" 24 (List.length (List.sort_uniq compare perms)));
    case "all permutations preserve elements" (fun () ->
        List.iter
          (fun p ->
            Alcotest.(check (list int))
              "sorted" [ 1; 2; 3 ]
              (List.sort compare p))
          (Util.Perm.all [ 3; 1; 2 ]));
    case "all refuses oversized input" (fun () ->
        check_raises_invalid "11 elems" (fun () ->
            Util.Perm.all (List.init 11 Fun.id)));
    case "interleavings" (fun () ->
        let merges = Util.Perm.interleavings [ 1; 2 ] [ 3 ] in
        check_int "count C(3,1)" 3 (List.length merges);
        List.iter
          (fun m ->
            let ones = List.filter (fun x -> x < 3) m in
            Alcotest.(check (list int)) "order kept" [ 1; 2 ] ones)
          merges);
    case "rank_of identity is zero" (fun () ->
        check_int "rank" 0 (Util.Perm.rank_of ~cmp:compare [ 1; 2; 3 ]));
    case "rank_of reverse is max" (fun () ->
        check_int "rank" 23 (Util.Perm.rank_of ~cmp:compare [ 4; 3; 2; 1 ]));
    case "rank_of middle" (fun () ->
        check_int "213" 2 (Util.Perm.rank_of ~cmp:compare [ 2; 1; 3 ]));
  ]

let prng_tests =
  [
    case "deterministic for a seed" (fun () ->
        let a = Util.Prng.create ~seed:7 and b = Util.Prng.create ~seed:7 in
        for _ = 1 to 100 do
          Alcotest.(check int64)
            "same stream" (Util.Prng.next_int64 a) (Util.Prng.next_int64 b)
        done);
    case "different seeds differ" (fun () ->
        let a = Util.Prng.create ~seed:1 and b = Util.Prng.create ~seed:2 in
        check_false "streams differ"
          (Util.Prng.next_int64 a = Util.Prng.next_int64 b));
    case "int respects bound" (fun () ->
        let g = Util.Prng.create ~seed:3 in
        for _ = 1 to 1000 do
          let v = Util.Prng.int g ~bound:17 in
          check_true "in range" (v >= 0 && v < 17)
        done);
    case "int rejects non-positive bound" (fun () ->
        let g = Util.Prng.create ~seed:3 in
        check_raises_invalid "bound 0" (fun () -> Util.Prng.int g ~bound:0));
    case "float in unit interval" (fun () ->
        let g = Util.Prng.create ~seed:4 in
        for _ = 1 to 1000 do
          let v = Util.Prng.float g in
          check_true "[0,1)" (v >= 0.0 && v < 1.0)
        done);
    case "uniform respects range" (fun () ->
        let g = Util.Prng.create ~seed:5 in
        for _ = 1 to 100 do
          let v = Util.Prng.uniform g ~lo:(-2.0) ~hi:3.0 in
          check_true "[-2,3)" (v >= -2.0 && v < 3.0)
        done);
    case "copy preserves stream" (fun () ->
        let a = Util.Prng.create ~seed:9 in
        ignore (Util.Prng.next_int64 a);
        let b = Util.Prng.copy a in
        Alcotest.(check int64)
          "same future" (Util.Prng.next_int64 a) (Util.Prng.next_int64 b));
    case "split children are independent" (fun () ->
        let parent = Util.Prng.create ~seed:10 in
        let c1 = Util.Prng.split parent in
        let c2 = Util.Prng.split parent in
        check_false "children differ"
          (Util.Prng.next_int64 c1 = Util.Prng.next_int64 c2));
    case "pick returns members" (fun () ->
        let g = Util.Prng.create ~seed:11 in
        let arr = [| 10; 20; 30 |] in
        for _ = 1 to 50 do
          check_true "member" (Array.mem (Util.Prng.pick g arr) arr)
        done);
    case "pick rejects empty" (fun () ->
        let g = Util.Prng.create ~seed:11 in
        check_raises_invalid "empty" (fun () -> Util.Prng.pick g [||]));
    case "shuffle permutes" (fun () ->
        let g = Util.Prng.create ~seed:12 in
        let arr = Array.init 20 Fun.id in
        Util.Prng.shuffle g arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "same multiset" (Array.init 20 Fun.id)
          sorted);
  ]

let stats_tests =
  [
    case "mean" (fun () ->
        check_float "mean" 2.5 (Util.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]));
    case "mean rejects empty" (fun () ->
        check_raises_invalid "empty" (fun () -> Util.Stats.mean []));
    case "geomean" (fun () ->
        check_float ~eps:1e-9 "geomean" 2.0 (Util.Stats.geomean [ 1.0; 2.0; 4.0 ]));
    case "geomean rejects non-positive" (fun () ->
        check_raises_invalid "zero" (fun () -> Util.Stats.geomean [ 1.0; 0.0 ]));
    case "stddev" (fun () ->
        check_float ~eps:1e-9 "constant" 0.0 (Util.Stats.stddev [ 3.0; 3.0 ]);
        check_float ~eps:1e-9 "pm1" 1.0 (Util.Stats.stddev [ 2.0; 4.0 ]));
    case "minimum maximum" (fun () ->
        check_float "min" (-1.0) (Util.Stats.minimum [ 3.0; -1.0; 2.0 ]);
        check_float "max" 3.0 (Util.Stats.maximum [ 3.0; -1.0; 2.0 ]));
    case "r_squared perfect" (fun () ->
        check_float "1.0" 1.0
          (Util.Stats.r_squared ~predicted:[ 1.0; 2.0; 3.0 ]
             ~measured:[ 1.0; 2.0; 3.0 ]));
    case "r_squared poor fit below perfect" (fun () ->
        let r2 =
          Util.Stats.r_squared ~predicted:[ 1.0; 1.0; 1.0 ]
            ~measured:[ 1.0; 2.0; 3.0 ]
        in
        check_true "below 1" (r2 < 1.0));
    case "r_squared mismatched lengths" (fun () ->
        check_raises_invalid "lengths" (fun () ->
            Util.Stats.r_squared ~predicted:[ 1.0 ] ~measured:[ 1.0; 2.0 ]));
    case "pearson of linear data" (fun () ->
        check_float ~eps:1e-9 "corr 1" 1.0
          (Util.Stats.pearson [ 1.0; 2.0; 3.0 ] [ 2.0; 4.0; 6.0 ]);
        check_float ~eps:1e-9 "corr -1" (-1.0)
          (Util.Stats.pearson [ 1.0; 2.0; 3.0 ] [ 6.0; 4.0; 2.0 ]));
    case "linear_fit recovers line" (fun () ->
        let slope, intercept =
          Util.Stats.linear_fit [ 0.0; 1.0; 2.0 ] [ 1.0; 3.0; 5.0 ]
        in
        check_float ~eps:1e-9 "slope" 2.0 slope;
        check_float ~eps:1e-9 "intercept" 1.0 intercept);
    case "linear_fit constant x" (fun () ->
        let slope, intercept =
          Util.Stats.linear_fit [ 2.0; 2.0 ] [ 1.0; 3.0 ]
        in
        check_float "slope" 0.0 slope;
        check_float "intercept" 2.0 intercept);
  ]

let table_tests =
  [
    case "render aligns columns" (fun () ->
        let t = Util.Table.create ~columns:[ "name"; "value" ] in
        Util.Table.add_row t [ "a"; "1" ];
        Util.Table.add_row t [ "longer"; "2" ];
        let s = Util.Table.render t in
        check_true "has header" (String.length s > 0);
        let lines = String.split_on_char '\n' s in
        check_int "4 lines" 4 (List.length lines);
        (* All lines padded to equal width modulo trailing spaces. *)
        check_true "rule line"
          (String.for_all (fun c -> c = '-') (List.nth lines 1)));
    case "add_row validates arity" (fun () ->
        let t = Util.Table.create ~columns:[ "a"; "b" ] in
        check_raises_invalid "1 cell" (fun () -> Util.Table.add_row t [ "x" ]));
    case "add_float_row formats" (fun () ->
        let t = Util.Table.create ~columns:[ "w"; "x" ] in
        let t = Util.Table.add_float_row t "row" [ 1.5 ] in
        check_true "contains" (String.length (Util.Table.render t) > 0));
    case "rows render in insertion order" (fun () ->
        let t = Util.Table.create ~columns:[ "c" ] in
        Util.Table.add_row t [ "first" ];
        Util.Table.add_row t [ "second" ];
        let lines = String.split_on_char '\n' (Util.Table.render t) in
        check_true "first before second"
          (String.length (List.nth lines 2) > 0
          && String.sub (List.nth lines 2) 0 5 = "first"));
  ]

let json_tests =
  [
    case "non-finite floats emit null, never nan/inf tokens" (fun () ->
        let open Util.Json in
        check_string "nan" "null" (to_string (Float nan));
        check_string "inf" "null" (to_string (Float infinity));
        check_string "-inf" "null" (to_string (Float neg_infinity));
        check_string "nested in an object"
          {|{"x":null,"y":1.5}|}
          (to_string (Obj [ ("x", Float nan); ("y", Float 1.5) ]));
        check_string "nested in a list" "[null,2.0]"
          (to_string (List [ Float infinity; Float 2.0 ])));
    case "a non-finite emission still parses back" (fun () ->
        let open Util.Json in
        let s = to_string (Obj [ ("dv", Float (0.0 /. 0.0)) ]) in
        match parse s with
        | Error e -> Alcotest.failf "own output rejected: %s" e
        | Ok json -> check_true "null member" (member "dv" json = Some Null));
    case "finite floats round-trip" (fun () ->
        let open Util.Json in
        List.iter
          (fun f ->
            match parse (to_string (Float f)) with
            | Ok (Float g) -> check_float "round-trip" f g
            | Ok (Int i) -> check_float "as int" f (float_of_int i)
            | _ -> Alcotest.fail "did not parse as a number")
          [ 0.0; -1.5; 3.14159265358979; 1e-300; 1.7976931348623157e308 ]);
  ]

(* The byte-at-a-time reference the slice-by-8 CRC must reproduce bit
   for bit: one table lookup per input byte. *)
let crc_oracle crc s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref (crc lxor 0xFFFFFFFF) in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let crc_tests =
  let qcheck = QCheck_alcotest.to_alcotest in
  [
    case "standard check value" (fun () ->
        check_int "crc32(123456789)" 0xCBF43926
          (Util.Crc32.string "123456789");
        check_int "empty" 0 (Util.Crc32.string ""));
    qcheck
      (QCheck.Test.make ~count:500 ~name:"slice-by-8 matches the byte oracle"
         QCheck.(
           pair (string_of_size Gen.(0 -- 200)) (string_of_size Gen.(0 -- 200)))
         (fun (a, b) ->
           let whole = Util.Crc32.string (a ^ b) in
           whole = crc_oracle 0 (a ^ b)
           && Util.Crc32.update (Util.Crc32.string a) b = whole
           && Util.Crc32.update (crc_oracle 0 a) b
              = crc_oracle (crc_oracle 0 a) b));
  ]

let suites =
  [
    ("util.crc32", crc_tests);
    ("util.ints", ints_tests);
    ("util.json", json_tests);
    ("util.perm", perm_tests);
    ("util.prng", prng_tests);
    ("util.stats", stats_tests);
    ("util.table", table_tests);
  ]
