  loadlabel r0, .L0
  loadimm r1, 10
  jmp fib
.L0:
  mstore 0, 0, r1
  halt
fib:
  blt r1, 2, .L1
  sub r2, r1, 1
  store fv0, r0
  loadlabel r0, .L2
  store fv1, r1
  move r1, r2
  fp+= 2
  jmp fib
.L2:
  fp+= -2
  load r0, fv1
  sub r0, r0, 2
  store fv1, r1
  move r1, r0
  loadlabel r0, .L3
  fp+= 2
  jmp fib
.L3:
  fp+= -2
  load r0, fv1
  add r0, r0, r1
  move r1, r0
  load r0, fv0
  jmp r0
.L1:
  jmp r0
